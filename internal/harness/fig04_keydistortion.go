package harness

import (
	"context"
	"fmt"

	"camouflage/internal/attack"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
	"camouflage/internal/trace"
)

// KeyDistortionResult reproduces Figure 4: a malicious program encodes a
// key vector in memory burstiness; Camouflage slightly changes the request
// inter-arrival distribution and the inferred keys are distorted.
type KeyDistortionResult struct {
	Key      uint64
	KeyLen   int
	Sent     []int
	Inferred []int
	// DistortedBits counts positions the observer gets wrong.
	DistortedBits int
	BER           float64
}

// KeyDistortion runs the key-leaking program under a mild ReqC
// configuration — a tight budget with within-bin release randomization
// (§IV-B4) — and reports how many inferred key bits are distorted. Unlike
// the full covert defense (CovertChannel), the point here is Figure 4's
// "slightly changes the distribution" framing: even gentle shaping
// corrupts the inferred key vector.
func KeyDistortion(ctx context.Context, key uint64, keyLen int, seed uint64) (*KeyDistortionResult, error) {
	cycles := CovertPulse * sim.Cycle(keyLen+2)

	// Mild shaping: a tight low-bin staircase with fake traffic and the
	// §IV-B4 within-bin release randomization — enough to corrupt the
	// inferred keys without erasing the traffic envelope entirely.
	cfg := withReqC(seeded(1, seed), shaper.Config{
		Binning:            stats.DefaultBinning(),
		Credits:            []int{2, 1, 1, 1, 0, 0, 0, 0, 0, 0},
		Window:             shaper.DefaultWindow,
		GenerateFake:       true,
		Policy:             shaper.PolicyExact,
		RandomizeWithinBin: true,
	})
	sender := trace.NewCovertSender(key, keyLen, CovertPulse, 2, true)
	res, err := Run{Config: cfg, Sources: []trace.Source{sender}, Cycles: cycles, Bus: true}.Do(ctx)
	if err != nil {
		return nil, err
	}

	counts := res.Bus.WindowCounts(0, CovertPulse, keyLen)
	dec := attack.DecodeCovertChannel(counts, sender.Bits())
	return &KeyDistortionResult{
		Key:           key,
		KeyLen:        keyLen,
		Sent:          sender.Bits(),
		Inferred:      dec.Bits,
		DistortedBits: dec.Errors,
		BER:           dec.BER,
	}, nil
}

// KeyRecovered reports whether the adversary inferred the key exactly.
func (r *KeyDistortionResult) KeyRecovered() bool { return r.DistortedBits == 0 }

// Table renders the result.
func (r *KeyDistortionResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 4 — key vector distortion under mild ReqC, key 0x%X", r.Key),
		Columns: []string{"vector", "bits"},
	}
	t.AddRow("sent", bitString(r.Sent))
	t.AddRow("inferred", bitString(r.Inferred))
	t.AddRow("distorted", fmt.Sprintf("%d of %d (BER %.2f)", r.DistortedBits, r.KeyLen, r.BER))
	recovered := "NO (key distorted)"
	if r.KeyRecovered() {
		recovered = "YES"
	}
	t.AddRow("key recovered", recovered)
	return t
}
