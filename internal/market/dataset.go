package market

import "fmt"

// Dataset bundles the three market substrates.
type Dataset struct {
	Sales    *SalesDB
	Reports  *ReportDB
	Listings *ListingsDB
}

// CategoryDPFTampering is the attack category key of the excavator case
// study.
const CategoryDPFTampering = "dpf-tampering"

// MajorExcavatorMaker is the "major company" of the paper's Equation 6.
const MajorExcavatorMaker = "TerraMach"

// DefaultDataset returns the built-in dataset calibrated to the paper's
// excavator case study:
//
//   - TerraMach sold 28,120 excavators in Europe in 2022 (market share,
//     non-monopolistic market);
//   - the annual report estimates PEA = 5% for DPF tampering on European
//     excavators, so PAE = 28,120 × 0.05 = 1,406 (Equation 6);
//   - the dominant defeat-device price cluster averages 360 EUR (PPIA)
//     across three competing vendors (n = 3);
//   - raw component listings average 50 EUR (VCU), so
//     PPIA − VCU = 310 EUR (Equation 7).
func DefaultDataset() (*Dataset, error) {
	sales, err := NewSalesDB([]SalesRecord{
		{Maker: MajorExcavatorMaker, Application: "excavator", Region: "EU", Year: 2022, Units: 28120},
		{Maker: "DigWell", Application: "excavator", Region: "EU", Year: 2022, Units: 21400},
		{Maker: "GroundForce", Application: "excavator", Region: "EU", Year: 2022, Units: 16800},
		{Maker: "*", Application: "excavator", Region: "EU", Year: 2022, Units: 84300},
		{Maker: MajorExcavatorMaker, Application: "excavator", Region: "EU", Year: 2021, Units: 26350},
		{Maker: "*", Application: "excavator", Region: "EU", Year: 2021, Units: 79100},
		{Maker: "*", Application: "excavator", Region: "NA", Year: 2022, Units: 61200},
		{Maker: "*", Application: "car", Region: "EU", Year: 2022, Units: 11300000},
		{Maker: "*", Application: "truck", Region: "EU", Year: 2022, Units: 331000},
	})
	if err != nil {
		return nil, fmt.Errorf("market: build sales db: %w", err)
	}

	reports, err := NewReportDB(
		[]AttackerStat{
			{Category: CategoryDPFTampering, Application: "excavator", Region: "EU",
				Year: 2022, PEA: 0.05, Source: "Global Automotive Cybersecurity Report 2023"},
			{Category: CategoryDPFTampering, Application: "truck", Region: "EU",
				Year: 2022, PEA: 0.03, Source: "Global Automotive Cybersecurity Report 2023"},
			{Category: "ecm-reprogramming", Application: "car", Region: "EU",
				Year: 2022, PEA: 0.02, Source: "Global Automotive Cybersecurity Report 2023"},
			{Category: "adblue-tampering", Application: "truck", Region: "EU",
				Year: 2022, PEA: 0.04, Source: "Global Automotive Cybersecurity Report 2023"},
		},
	)
	if err != nil {
		return nil, fmt.Errorf("market: build report db: %w", err)
	}

	listings, err := NewListingsDB(defaultListings())
	if err != nil {
		return nil, fmt.Errorf("market: build listings db: %w", err)
	}

	return &Dataset{Sales: sales, Reports: reports, Listings: listings}, nil
}

// defaultListings returns the marketplace corpus. The mainstream
// defeat-device band is symmetric around 360 EUR across three vendors;
// a budget band sits near 150 EUR and a professional-install band near
// 800 EUR. Component listings (raw boards and pipes) average 50 EUR.
func defaultListings() []*Listing {
	mk := func(id, vendor, kind, text string) *Listing {
		return &Listing{
			ID: id, Category: CategoryDPFTampering, Vendor: vendor,
			Region: "EU", Kind: kind, Text: text,
		}
	}
	return []*Listing{
		// Mainstream band — vendor EmuTech (mean 360).
		mk("L001", "EmuTech", "device", "Full DPF delete kit for excavators, plug and play — 350€ shipped"),
		mk("L002", "EmuTech", "device", "DPF off module v2, fits most diesel machines, 355 EUR"),
		mk("L003", "EmuTech", "device", "Delete kit with harness, warranty included — 360€"),
		mk("L004", "EmuTech", "device", "Pro emulator, updated firmware, 365 EUR direct"),
		mk("L005", "EmuTech", "device", "Complete kit + instructions, 370€ this week only"),
		// Mainstream band — vendor DieselFreedom (mean 360).
		mk("L006", "DieselFreedom", "device", "DPF removal emulator, all brands, 345€"),
		mk("L007", "DieselFreedom", "device", "Emission-off box, tested on excavators — 360 EUR"),
		mk("L008", "DieselFreedom", "device", "Delete module, next-day dispatch, 375€"),
		// Mainstream band — vendor TuneWorks (mean 360).
		mk("L009", "TuneWorks", "device", "DPF defeat device, CE-less special — 352€"),
		mk("L010", "TuneWorks", "device", "Excavator delete kit, support included, 368 EUR"),
		// Budget band — generic imports.
		mk("L011", "BayMods", "device", "Cheap DPF emulator clone, no support, 140€"),
		mk("L012", "BayMods", "device", "Basic delete dongle, 150 EUR, untested on excavators"),
		mk("L013", "GreyImports", "device", "Bulk emulator boards, 145€ each"),
		mk("L014", "GreyImports", "device", "Entry-level DPF off stick — 155 EUR"),
		// Professional services band.
		mk("L015", "ProFlash Garage", "service", "On-site DPF delete service incl. remap, 790€ all-in"),
		mk("L016", "ProFlash Garage", "service", "Full delete + dyno verification, 800 EUR"),
		mk("L017", "ProFlash Garage", "service", "Fleet discount delete service, 810€ per machine"),
		// Component listings — the VCU basis.
		mk("L018", "PCBdirect", "component", "Bare emulator PCB, unflashed — 48€"),
		mk("L019", "PCBdirect", "component", "Blank controller board for DIY emulator, 50 EUR"),
		mk("L020", "SteelPipe Co", "component", "Straight replacement pipe, raw steel, 52€"),
	}
}
