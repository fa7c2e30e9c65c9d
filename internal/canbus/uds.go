package canbus

import (
	"bytes"
	"fmt"
)

// UDS-style service identifiers (subset).
const (
	SvcSessionControl  byte = 0x10
	SvcSecurityAccess  byte = 0x27
	SvcRequestDownload byte = 0x34
	SvcTransferData    byte = 0x36
	SvcTransferExit    byte = 0x37

	// positiveOffset turns a request SID into its positive response SID.
	positiveOffset byte = 0x40
	// negativeSID marks a negative response.
	negativeSID byte = 0x7F
)

// Negative response codes (subset).
const (
	NRCSubFunction     byte = 0x12
	NRCIncorrectLength byte = 0x13
	NRCRequestSequence byte = 0x24
	NRCSecurityDenied  byte = 0x33
	NRCInvalidKey      byte = 0x35
	NRCWrongSession    byte = 0x7E
)

// Sessions.
const (
	SessionDefault     byte = 0x01
	SessionProgramming byte = 0x02
)

// ECU is a diagnostic server on the bus: it listens for single-frame
// service requests on its request identifier and answers on its response
// identifier. Reprogramming requires the programming session and a
// successful seed/key security access — the mechanism whose bypass via
// leaked seed/key secrets makes OBD reprogramming a *local*, not
// network, attack in the PSP analysis.
type ECU struct {
	name   string
	reqID  uint16
	respID uint16
	secret []byte

	session   byte
	unlocked  bool
	lastSeed  []byte
	seedState uint32

	downloadActive bool
	expectedSeq    byte
	buffer         []byte

	// Firmware is the currently installed image.
	Firmware []byte
	// FlashCount counts completed reprogramming cycles.
	FlashCount int

	outbox []Frame
}

// NewECU builds a diagnostic server. secret is the seed/key secret;
// firmware is the installed image.
func NewECU(name string, reqID, respID uint16, secret, firmware []byte) *ECU {
	return &ECU{
		name: name, reqID: reqID, respID: respID,
		secret:    append([]byte(nil), secret...),
		session:   SessionDefault,
		seedState: 0x1F2E3D4C,
		Firmware:  append([]byte(nil), firmware...),
	}
}

// Name implements Node.
func (e *ECU) Name() string { return e.name }

// Session returns the active diagnostic session.
func (e *ECU) Session() byte { return e.session }

// Unlocked reports whether security access succeeded.
func (e *ECU) Unlocked() bool { return e.unlocked }

// Pending implements Node: queued responses drain one per slot.
func (e *ECU) Pending(int) (Frame, bool) {
	if len(e.outbox) == 0 {
		return Frame{}, false
	}
	return e.outbox[0], true
}

// Sent implements Node.
func (e *ECU) Sent(int) { e.outbox = e.outbox[1:] }

// Receive implements Node: frames on the request identifier are service
// requests.
func (e *ECU) Receive(_ int, f Frame) {
	if f.ID != e.reqID || len(f.Data) == 0 {
		return
	}
	resp := e.handle(f.Data)
	e.outbox = append(e.outbox, Frame{ID: e.respID, Data: resp})
}

func (e *ECU) negative(sid, nrc byte) []byte { return []byte{negativeSID, sid, nrc} }

func (e *ECU) handle(req []byte) []byte {
	sid := req[0]
	switch sid {
	case SvcSessionControl:
		if len(req) != 2 {
			return e.negative(sid, NRCIncorrectLength)
		}
		switch req[1] {
		case SessionDefault, SessionProgramming:
			e.session = req[1]
			// Session transitions reset security state, per UDS.
			e.unlocked = false
			e.downloadActive = false
			return []byte{sid + positiveOffset, req[1]}
		default:
			return e.negative(sid, NRCSubFunction)
		}
	case SvcSecurityAccess:
		if len(req) < 2 {
			return e.negative(sid, NRCIncorrectLength)
		}
		switch req[1] {
		case 0x01: // request seed
			e.lastSeed = e.nextSeed()
			return append([]byte{sid + positiveOffset, 0x01}, e.lastSeed...)
		case 0x02: // send key
			if e.lastSeed == nil {
				return e.negative(sid, NRCRequestSequence)
			}
			want := ComputeKey(e.lastSeed, e.secret)
			if !bytes.Equal(req[2:], want) {
				e.lastSeed = nil
				return e.negative(sid, NRCInvalidKey)
			}
			e.unlocked = true
			e.lastSeed = nil
			return []byte{sid + positiveOffset, 0x02}
		default:
			return e.negative(sid, NRCSubFunction)
		}
	case SvcRequestDownload:
		if e.session != SessionProgramming {
			return e.negative(sid, NRCWrongSession)
		}
		if !e.unlocked {
			return e.negative(sid, NRCSecurityDenied)
		}
		e.downloadActive = true
		e.expectedSeq = 1
		e.buffer = nil
		return []byte{sid + positiveOffset}
	case SvcTransferData:
		if !e.downloadActive {
			return e.negative(sid, NRCRequestSequence)
		}
		if len(req) < 2 {
			return e.negative(sid, NRCIncorrectLength)
		}
		if req[1] != e.expectedSeq {
			return e.negative(sid, NRCRequestSequence)
		}
		e.buffer = append(e.buffer, req[2:]...)
		e.expectedSeq++
		return []byte{sid + positiveOffset, req[1]}
	case SvcTransferExit:
		if !e.downloadActive || len(e.buffer) == 0 {
			return e.negative(sid, NRCRequestSequence)
		}
		e.Firmware = append([]byte(nil), e.buffer...)
		e.FlashCount++
		e.downloadActive = false
		e.buffer = nil
		return []byte{sid + positiveOffset}
	default:
		return e.negative(sid, NRCSubFunction)
	}
}

// nextSeed draws a 2-byte seed from a deterministic LCG.
func (e *ECU) nextSeed() []byte {
	e.seedState = e.seedState*1664525 + 1013904223
	return []byte{byte(e.seedState >> 24), byte(e.seedState >> 16)}
}

// ComputeKey derives the security-access key from a seed and the shared
// secret: key[i] = seed[i] XOR secret[i mod len(secret)]. Deliberately
// weak — the point of the PSP argument is that such algorithms leak into
// the tuning scene, turning reprogramming into a routine local attack.
func ComputeKey(seed, secret []byte) []byte {
	if len(secret) == 0 {
		return append([]byte(nil), seed...)
	}
	key := make([]byte, len(seed))
	for i, s := range seed {
		key[i] = s ^ secret[i%len(secret)]
	}
	return key
}

// TesterStep builds the next request from the responses received so far;
// it returns false when the tester should stop scripting.
type TesterStep func(responses []Frame) (Frame, bool)

// Tester is a diagnostic client (an OBD flashing tool) walking a step
// script: send a request, wait for the ECU response, compute the next
// request.
type Tester struct {
	name   string
	respID uint16
	steps  []TesterStep

	idx       int
	awaiting  bool
	responses []Frame
	failedNRC byte
	done      bool
}

// NewTester builds a tester listening for responses on respID.
func NewTester(name string, respID uint16, steps []TesterStep) *Tester {
	return &Tester{name: name, respID: respID, steps: steps}
}

// Name implements Node.
func (t *Tester) Name() string { return t.name }

// Pending implements Node.
func (t *Tester) Pending(int) (Frame, bool) {
	if t.done || t.awaiting || t.idx >= len(t.steps) {
		return Frame{}, false
	}
	f, ok := t.steps[t.idx](t.responses)
	if !ok {
		t.done = true
		return Frame{}, false
	}
	return f, true
}

// Sent implements Node.
func (t *Tester) Sent(int) { t.awaiting = true }

// Receive implements Node.
func (t *Tester) Receive(_ int, f Frame) {
	if f.ID != t.respID || !t.awaiting {
		return
	}
	t.awaiting = false
	t.responses = append(t.responses, f.Clone())
	if len(f.Data) >= 3 && f.Data[0] == negativeSID {
		t.failedNRC = f.Data[2]
		t.done = true
		return
	}
	t.idx++
	if t.idx >= len(t.steps) {
		t.done = true
	}
}

// Done reports whether the script completed or aborted.
func (t *Tester) Done() bool { return t.done && !t.awaiting }

// Failed returns the negative response code that aborted the script
// (0 when none).
func (t *Tester) Failed() byte { return t.failedNRC }

// FlashScript builds the full reprogramming sequence: programming
// session, seed request, key (computed from the seed with the given
// secret), download request, firmware transfer in 6-byte chunks, and
// transfer exit. reqID is the ECU's request identifier.
func FlashScript(reqID uint16, secret, firmware []byte) []TesterStep {
	fixed := func(data ...byte) TesterStep {
		return func([]Frame) (Frame, bool) {
			return Frame{ID: reqID, Data: data}, true
		}
	}
	steps := []TesterStep{
		fixed(SvcSessionControl, SessionProgramming),
		fixed(SvcSecurityAccess, 0x01),
		func(responses []Frame) (Frame, bool) {
			if len(responses) == 0 {
				return Frame{}, false
			}
			last := responses[len(responses)-1]
			if len(last.Data) < 3 || last.Data[0] != SvcSecurityAccess+positiveOffset {
				return Frame{}, false
			}
			seed := last.Data[2:]
			key := ComputeKey(seed, secret)
			return Frame{ID: reqID, Data: append([]byte{SvcSecurityAccess, 0x02}, key...)}, true
		},
		fixed(SvcRequestDownload),
	}
	seq := byte(1)
	for off := 0; off < len(firmware); off += 6 {
		end := off + 6
		if end > len(firmware) {
			end = len(firmware)
		}
		chunk := firmware[off:end]
		data := append([]byte{SvcTransferData, seq}, chunk...)
		steps = append(steps, fixed(data...))
		seq++
	}
	steps = append(steps, fixed(SvcTransferExit))
	return steps
}

// RunUntilDone steps the bus until the tester finishes or maxSlots pass.
// It returns the slots consumed.
func RunUntilDone(bus *Bus, tester *Tester, maxSlots int) (int, error) {
	for i := 0; i < maxSlots; i++ {
		if tester.Done() {
			return i, nil
		}
		if _, err := bus.Step(); err != nil {
			return i, err
		}
	}
	if !tester.Done() {
		return maxSlots, fmt.Errorf("canbus: tester %s not done after %d slots", tester.Name(), maxSlots)
	}
	return maxSlots, nil
}
