package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(7)
	check := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint64nBounds(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(17); v >= 17 {
			t.Fatalf("Uint64n(17) returned %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(5)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %.4f", frac)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(13)
	for _, mean := range []float64{2, 10, 100} {
		var sum float64
		const n = 50000
		for i := 0; i < n; i++ {
			sum += float64(r.Geometric(mean))
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.05 {
			t.Fatalf("Geometric(%v) sample mean %.2f", mean, got)
		}
	}
}

func TestGeometricMinimumOne(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 10000; i++ {
		if r.Geometric(1.5) < 1 {
			t.Fatal("Geometric returned < 1")
		}
	}
	if r.Geometric(0.5) != 1 {
		t.Fatal("Geometric with mean <= 1 should return 1")
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRNG(21)
	child := parent.Fork()
	// The child's stream must not equal the parent's continued stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked stream tracks parent: %d/100 matches", same)
	}
}

func TestShufflePermutes(t *testing.T) {
	r := NewRNG(23)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestDiscardMatchesDraws(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 17, 1000} {
		a, b := NewRNG(99), NewRNG(99)
		for i := uint64(0); i < n; i++ {
			a.Uint64()
		}
		b.Discard(n)
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("Discard(%d): next draw %d, want %d", n, y, x)
		}
	}
}
