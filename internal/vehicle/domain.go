package vehicle

import "fmt"

// Domain is a functional domain of the vehicle architecture.
type Domain int

// Functional domains, following Fig. 4 of the paper.
const (
	DomainPowertrain Domain = iota + 1
	DomainChassis
	DomainBody
	DomainInfotainment
	DomainCommunication
	DomainDiagnostics
)

var domainNames = map[Domain]string{
	DomainPowertrain:    "PowerTrain",
	DomainChassis:       "Chassis",
	DomainBody:          "Body",
	DomainInfotainment:  "Infotainment",
	DomainCommunication: "Communication",
	DomainDiagnostics:   "On Board Diagnostic",
}

// String returns the domain name used in the paper's figure.
func (d Domain) String() string {
	if s, ok := domainNames[d]; ok {
		return s
	}
	return fmt.Sprintf("Domain(%d)", int(d))
}

// Valid reports whether d is a defined domain.
func (d Domain) Valid() bool { return d >= DomainPowertrain && d <= DomainDiagnostics }

// BusKind is the technology of a communication bus segment.
type BusKind int

// Bus technologies present in the reference architecture.
const (
	BusCAN BusKind = iota + 1
	BusLIN
	BusEthernet
	BusWireless // V2X / cellular / Wi-Fi / Bluetooth attachment point
)

var busKindNames = map[BusKind]string{
	BusCAN:      "CAN",
	BusLIN:      "LIN",
	BusEthernet: "Ethernet",
	BusWireless: "Wireless",
}

// String returns the bus technology name.
func (k BusKind) String() string {
	if s, ok := busKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("BusKind(%d)", int(k))
}

// Valid reports whether k is a defined bus technology.
func (k BusKind) Valid() bool { return k >= BusCAN && k <= BusWireless }

// SurfaceClass is the attack-surface classification of an ECU, matching
// the three attack types Upstream's reports distinguish and Fig. 4
// colour-codes (green = long-range, blue = short-range, red = physical).
type SurfaceClass int

// Surface classes.
const (
	SurfacePhysical SurfaceClass = iota + 1 // requires physical access
	SurfaceShortRange
	SurfaceLongRange
)

var surfaceNames = map[SurfaceClass]string{
	SurfacePhysical:   "Physical Attack",
	SurfaceShortRange: "Short-Range Attack",
	SurfaceLongRange:  "Long-Range Attack",
}

// String returns the surface class name.
func (s SurfaceClass) String() string {
	if n, ok := surfaceNames[s]; ok {
		return n
	}
	return fmt.Sprintf("SurfaceClass(%d)", int(s))
}

// Valid reports whether s is a defined surface class.
func (s SurfaceClass) Valid() bool { return s >= SurfacePhysical && s <= SurfaceLongRange }
