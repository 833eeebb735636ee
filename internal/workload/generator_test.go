package workload

import "testing"

// TestLCGGoldenValues pins the generator constants bit-for-bit: the kvstore
// validation figure's golden tables depend on exactly these streams, so any
// drift here would silently invalidate fig16.golden.
func TestLCGGoldenValues(t *testing.T) {
	const seed = 12345
	if got, want := PreloadState(seed), uint64(17399844927936646018); got != want {
		t.Errorf("PreloadState(%d) = %d, want %d", seed, got, want)
	}
	if got, want := ClientState(seed, 2), uint64(4354685564936857700); got != want {
		t.Errorf("ClientState(%d, 2) = %d, want %d", seed, got, want)
	}
	pre := NewLCG(PreloadState(seed))
	for i, want := range []uint64{936678769431352, 7792750518010736, 3080410748336722} {
		if got := pre.Next(); got != want {
			t.Errorf("preload draw %d = %d, want %d", i, got, want)
		}
	}
	cl := NewLCG(ClientState(seed, 2))
	for i, want := range []uint64{5846404718992294, 7221447164384376, 1102927629385401} {
		if got := cl.Next(); got != want {
			t.Errorf("client-2 draw %d = %d, want %d", i, got, want)
		}
	}
}

func TestLCGFloat64Range(t *testing.T) {
	r := NewLCG(PreloadState(7))
	for i := 0; i < 10000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v outside [0, 1)", v)
		}
	}
}

func TestGetDrawFraction(t *testing.T) {
	r := NewLCG(ClientState(99, 0))
	const n = 100000
	gets := 0
	for i := 0; i < n; i++ {
		if GetDraw(&r, 0.9) {
			gets++
		}
	}
	frac := float64(gets) / n
	if frac < 0.88 || frac > 0.92 {
		t.Errorf("GetDraw(0.9) fraction = %v, want ~0.9", frac)
	}
}

func TestMixValidate(t *testing.T) {
	for _, m := range Presets {
		if err := m.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", m.Name, err)
		}
	}
	bad := []Mix{
		{Name: "sum", Read: 900, Update: 50, Scan: 0},
		{Name: "neg", Read: 1100, Update: -100, Scan: 0},
		{Name: "scanlen", Read: 900, Update: 0, Scan: 100, ScanLen: 0},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("mix %q validated but should not", m.Name)
		}
	}
}

func TestMixByName(t *testing.T) {
	for _, name := range PresetNames() {
		m, ok := MixByName(name)
		if !ok || m.Name != name {
			t.Errorf("MixByName(%q) = %+v, %v", name, m, ok)
		}
	}
	if _, ok := MixByName("nope"); ok {
		t.Error("MixByName accepted unknown name")
	}
}

// TestClientGenDrawOrder pins a client's op-stream contract: nextOp makes
// one key draw, then one per-mille kind draw, from the client's LCG seeded
// with ClientState(seed, c). The
// replay below is the exact specification a different pool decomposition
// must reproduce.
func TestClientGenDrawOrder(t *testing.T) {
	const seed, c = 42, 3
	keys := Uniform{Keys: 50}
	mix := Mix{Name: "t", Read: 700, Update: 200, Scan: 100, ScanLen: 4}
	g := NewLCG(ClientState(seed, c))
	r := NewLCG(ClientState(seed, c))
	for i := 0; i < 1000; i++ {
		op := nextOp(&g, keys, mix.Read, mix.Read+mix.Update)
		wantKey := r.Next() % keys.Keys
		v := int(r.Next() % 1000)
		var wantKind OpKind
		switch {
		case v < mix.Read:
			wantKind = OpRead
		case v < mix.Read+mix.Update:
			wantKind = OpUpdate
		default:
			wantKind = OpScan
		}
		if op.Key != wantKey || op.Kind != wantKind {
			t.Fatalf("op %d = {%v %d}, want {%v %d}", i, op.Kind, op.Key, wantKind, wantKey)
		}
	}
}

func TestClientGenKindFrequencies(t *testing.T) {
	mix := Mix{Name: "t", Read: 700, Update: 200, Scan: 100, ScanLen: 4}
	g := NewLCG(ClientState(7, 0))
	const n = 100000
	var counts [NumOpKinds]int
	for i := 0; i < n; i++ {
		counts[nextOp(&g, Uniform{Keys: 1000}, mix.Read, mix.Read+mix.Update).Kind]++
	}
	wants := []float64{0.7, 0.2, 0.1}
	for k, want := range wants {
		frac := float64(counts[k]) / n
		if frac < want-0.02 || frac > want+0.02 {
			t.Errorf("%v fraction = %v, want ~%v", OpKind(k), frac, want)
		}
	}
}

func TestOpKindString(t *testing.T) {
	wants := map[OpKind]string{OpRead: "read", OpUpdate: "update", OpScan: "scan", OpKind(9): "OpKind(9)"}
	for k, want := range wants {
		if got := k.String(); got != want {
			t.Errorf("OpKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
