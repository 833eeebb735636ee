package vtprof

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Sample is one (thread, phase-stack) row of a snapshot: Stack[0] is the
// thread name, Stack[1:] the phase stack root-first, Values the per-category
// virtual nanoseconds.
type Sample struct {
	Stack  []string
	Values [NumCategories]int64
}

// Profile is a canonical profiler snapshot: samples sorted by stack, stable
// across fold order, worker count and trial parallelism. It is the input to
// both exporters (pprof protobuf and folded stacks).
type Profile struct {
	Samples []Sample
}

func splitKey(k string) []string {
	return strings.Split(k, keySep)
}

func joinStack(stack []string) string {
	return strings.Join(stack, keySep)
}

// Merge sums profiles sample-by-sample into a new canonical profile. The sum
// is commutative and associative, so merged output is independent of the
// order jobs finished in.
func Merge(profiles ...*Profile) *Profile {
	acc := make(map[string]*[NumCategories]int64)
	for _, p := range profiles {
		if p == nil {
			continue
		}
		for i := range p.Samples {
			s := &p.Samples[i]
			k := joinStack(s.Stack)
			sv := acc[k]
			if sv == nil {
				sv = new([NumCategories]int64)
				acc[k] = sv
			}
			for c, v := range s.Values {
				sv[c] += v
			}
		}
	}
	keys := make([]string, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := &Profile{}
	for _, k := range keys {
		out.Samples = append(out.Samples, Sample{Stack: splitKey(k), Values: *acc[k]})
	}
	return out
}

// Totals sums the profile per category.
func (p *Profile) Totals() [NumCategories]int64 {
	var t [NumCategories]int64
	for i := range p.Samples {
		for c, v := range p.Samples[i].Values {
			t[c] += v
		}
	}
	return t
}

// TotalNS is the profile's total virtual nanoseconds across all categories.
func (p *Profile) TotalNS() int64 {
	var sum int64
	for _, v := range p.Totals() {
		sum += v
	}
	return sum
}

// WriteFolded emits the profile in folded-stacks form, one line per
// (stack, category) with a nonzero value:
//
//	thread;phase1;...;phaseN;category virtual_ns
//
// sorted, ready for inferno/flamegraph.pl.
func (p *Profile) WriteFolded(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := range p.Samples {
		s := &p.Samples[i]
		base := strings.Join(s.Stack, ";")
		for c, v := range s.Values {
			if v == 0 {
				continue
			}
			bw.WriteString(base)
			bw.WriteByte(';')
			bw.WriteString(Category(c).String())
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(v, 10))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}
