package campaign

import (
	"fmt"
	"testing"

	"camouflage/internal/ckpt"
)

// TestClassifyCorruptCheckpointFatal: surfaced checkpoint corruption is
// never retried — the bytes decode identically every time.
func TestClassifyCorruptCheckpointFatal(t *testing.T) {
	err := fmt.Errorf("loading resume point: %w", ckpt.Mismatch("bad shape"))
	if got := Classify(err); got != ClassFatal {
		t.Fatalf("Classify(ErrCorrupt) = %v, want ClassFatal", got)
	}
}
