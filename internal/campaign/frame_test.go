package campaign

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"camouflage/internal/obs"
)

// encodeFrame returns the wire bytes of one valid heartbeat frame.
func encodeFrame(t *testing.T, f HeartbeatFrame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrameJSON(&buf, f); err != nil {
		t.Fatalf("WriteFrameJSON: %v", err)
	}
	return buf.Bytes()
}

// TestReadFrameTruncationTable feeds readFrame a valid frame truncated at
// every byte offset and checks the error taxonomy: zero bytes is a clean
// EOF (peer exited between frames); any mid-frame truncation — inside the
// header or inside the payload — is a torn frame (transient); only the
// complete frame decodes.
func TestReadFrameTruncationTable(t *testing.T) {
	full := encodeFrame(t, HeartbeatFrame{
		Kind:  FrameGrid,
		Cycle: 12345,
		RSS:   1 << 20,
		Metrics: &obs.MetricsDelta{
			Counters: map[string]uint64{"core.requests": 7},
		},
	})
	if len(full) <= 5 {
		t.Fatalf("test frame too small to exercise offsets: %d bytes", len(full))
	}
	for cut := 0; cut <= len(full); cut++ {
		_, err := readFrame(bytes.NewReader(full[:cut]))
		switch {
		case cut == 0:
			if err != io.EOF {
				t.Errorf("cut=0: want io.EOF (clean exit between frames), got %v", err)
			}
		case cut < len(full):
			if !errors.Is(err, ErrTornFrame) {
				t.Errorf("cut=%d/%d: want ErrTornFrame, got %v", cut, len(full), err)
			}
			if errors.Is(err, ErrFrameTooLarge) {
				t.Errorf("cut=%d: truncation misclassified as fatal oversize", cut)
			}
		default:
			if err != nil {
				t.Errorf("cut=%d (complete frame): want nil, got %v", cut, err)
			}
		}
	}
}

// TestReadFrameOversizeFatal checks that an out-of-range length prefix is
// rejected as ErrFrameTooLarge without allocating or reading the payload,
// and that the error is distinct from the transient torn-frame class.
func TestReadFrameOversizeFatal(t *testing.T) {
	cases := []struct {
		name string
		n    uint32
	}{
		{"zero", 0},
		{"just over max", MaxFrameLen + 1},
		{"max uint32", 1<<32 - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], tc.n)
			_, err := readFrame(bytes.NewReader(hdr[:]))
			if !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("n=%d: want ErrFrameTooLarge, got %v", tc.n, err)
			}
			if errors.Is(err, ErrTornFrame) {
				t.Fatalf("n=%d: oversize misclassified as transient torn frame", tc.n)
			}
		})
	}
	// Boundary: exactly MaxFrameLen is in range; a short payload after a
	// legal header is a torn frame, not an oversize.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameLen)
	_, err := readFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrTornFrame) {
		t.Fatalf("n=MaxFrameLen with empty payload: want ErrTornFrame, got %v", err)
	}
}

// TestReadFrameGarbagePayload checks that a syntactically complete frame
// with a non-JSON payload fails decode without matching either stream
// error class.
func TestReadFrameGarbagePayload(t *testing.T) {
	payload := []byte("{not json")
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	_, err := readFrame(bytes.NewReader(buf))
	if err == nil {
		t.Fatal("want decode error, got nil")
	}
	if errors.Is(err, ErrTornFrame) || errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("decode failure misclassified as stream error: %v", err)
	}
}

// TestWriteFrameJSONRejectsOversizePayload checks the writer refuses to
// emit a frame the reader is guaranteed to reject.
func TestWriteFrameJSONRejectsOversizePayload(t *testing.T) {
	big := struct {
		Blob string `json:"blob"`
	}{Blob: string(bytes.Repeat([]byte{'a'}, MaxFrameLen+1))}
	err := WriteFrameJSON(io.Discard, big)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

// TestFrameRoundTripGeneric round-trips a heartbeat frame through the
// generic writer and the heartbeat reader.
func TestFrameRoundTripGeneric(t *testing.T) {
	var buf bytes.Buffer
	want := HeartbeatFrame{Kind: FrameDone, Cycle: 42, RSS: 1 << 20}
	if err := WriteFrameJSON(&buf, want); err != nil {
		t.Fatalf("WriteFrameJSON: %v", err)
	}
	got, err := readFrame(&buf)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	// The stream is now empty: next read is a clean EOF.
	if _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("post-frame read: want io.EOF, got %v", err)
	}
}
