package canbus

import (
	"fmt"
)

// MaxStandardID is the highest 11-bit CAN identifier.
const MaxStandardID = 0x7FF

// Frame is a classic CAN data frame with an 11-bit identifier.
type Frame struct {
	// ID is the 11-bit arbitration identifier; lower wins arbitration.
	ID uint16
	// Data is the payload; len(Data) ≤ 8.
	Data []byte
}

// Validate checks identifier range and payload length.
func (f Frame) Validate() error {
	if f.ID > MaxStandardID {
		return fmt.Errorf("canbus: identifier 0x%X exceeds 11 bits", f.ID)
	}
	if len(f.Data) > 8 {
		return fmt.Errorf("canbus: payload of %d bytes exceeds 8", len(f.Data))
	}
	return nil
}

// String renders the frame as "ID#HEXDATA".
func (f Frame) String() string {
	return fmt.Sprintf("0x%03X#%X", f.ID, f.Data)
}

// Clone deep-copies the frame so receivers cannot alias sender buffers.
func (f Frame) Clone() Frame {
	return Frame{ID: f.ID, Data: append([]byte(nil), f.Data...)}
}
