package workload

import (
	"math"
	"testing"
)

// rankProb is the analytic probability of drawing popularity rank i (the
// i-th most popular key before scrambling): P(i) = (1/(i+1)^theta) / zetan.
func rankProb(z *Zipfian, rank uint64) float64 {
	return 1 / math.Pow(float64(rank+1), z.theta) / z.zetan
}

// TestZipfianChiSquare draws a fixed-seed sample and compares the observed
// rank frequencies against the analytic zipfian probabilities with a
// chi-square test. The draw is fully deterministic, so the statistic is a
// constant. Gray et al.'s inversion is an approximation — its per-rank bias
// adds a systematic term on top of the chi-square(df=99) sampling noise
// (99.9th pct ~ 148), so the threshold carries headroom above that; a broken
// sampler still fails by two orders of magnitude (uniform scores ~31000 at
// this sample count).
func TestZipfianChiSquare(t *testing.T) {
	const n = 100
	const samples = 20000
	z, err := NewZipfian(n, DefaultTheta, false)
	if err != nil {
		t.Fatal(err)
	}
	r := NewLCG(ClientState(2026, 0))
	var obs [n]float64
	for i := 0; i < samples; i++ {
		k := z.Key(&r)
		if k >= n {
			t.Fatalf("key %d outside [0, %d)", k, n)
		}
		obs[k]++
	}
	var chi2 float64
	for rank := 0; rank < n; rank++ {
		exp := rankProb(z, uint64(rank)) * samples
		d := obs[rank] - exp
		chi2 += d * d / exp
	}
	if chi2 > 300 {
		t.Errorf("chi-square = %.1f over 99 df, want < 300", chi2)
	}
	// The skew must actually be there: rank 0 carries ~6.3% of the mass at
	// theta 0.99 over 100 keys, an order of magnitude above uniform.
	if frac := obs[0] / samples; frac < 0.05 {
		t.Errorf("rank-0 mass = %v, want > 0.05 (zipfian skew missing)", frac)
	}
}

func TestZipfianRankProbSumsToOne(t *testing.T) {
	z, err := NewZipfian(1000, DefaultTheta, false)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := uint64(0); i < 1000; i++ {
		sum += rankProb(z, i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum of rankProb = %v, want 1", sum)
	}
}

// TestZipfianScramble checks the scrambled variant preserves the popularity
// mass while scattering it: the hottest scrambled key receives the rank-0
// probability mass, but at a hashed position.
func TestZipfianScramble(t *testing.T) {
	const n = 1000
	const samples = 100000
	z, err := NewZipfian(n, DefaultTheta, true)
	if err != nil {
		t.Fatal(err)
	}
	r := NewLCG(ClientState(7, 0))
	counts := make(map[uint64]int)
	for i := 0; i < samples; i++ {
		k := z.Key(&r)
		if k >= n {
			t.Fatalf("scrambled key %d outside [0, %d)", k, n)
		}
		counts[k]++
	}
	var hotKey uint64
	hot := 0
	for k, c := range counts {
		if c > hot {
			hot, hotKey = c, k
		}
	}
	if want := fnv64(0) % n; hotKey != want {
		t.Errorf("hottest key = %d, want fnv64(0) %% n = %d", hotKey, want)
	}
	wantHot := rankProb(z, 0) * samples
	if d := math.Abs(float64(hot) - wantHot); d > wantHot*0.15 {
		t.Errorf("hottest key count = %d, want ~%.0f", hot, wantHot)
	}
}

func TestZipfianValidation(t *testing.T) {
	if _, err := NewZipfian(0, DefaultTheta, false); err == nil {
		t.Error("empty key space accepted")
	}
	if _, err := NewZipfian(10, 0, false); err == nil {
		t.Error("theta 0 accepted")
	}
	if _, err := NewZipfian(10, 1, false); err == nil {
		t.Error("theta 1 accepted")
	}
}

func TestZipfianDeterminism(t *testing.T) {
	z, err := NewZipfian(500, DefaultTheta, true)
	if err != nil {
		t.Fatal(err)
	}
	a := NewLCG(ClientState(11, 4))
	b := NewLCG(ClientState(11, 4))
	for i := 0; i < 5000; i++ {
		if ka, kb := z.Key(&a), z.Key(&b); ka != kb {
			t.Fatalf("draw %d diverged: %d vs %d", i, ka, kb)
		}
	}
}
