package cache

import (
	"fmt"
	"slices"
	"testing"
)

// refPrefetcher is the reference stream prefetcher Observe is checked
// against: one record per stream with a last-use timestamp, and three
// sequential scans per access — continuation (or repeat), then pairing with
// an embryonic stream, then allocation into the first invalid slot or else
// the least recently used one.
type refPrefetcher struct {
	depth   int
	clock   uint64
	streams [maxStreams]refStream
}

type refStream struct {
	valid      bool
	lastLine   uintptr
	lastPF     uintptr
	dir        int8
	confidence int8
	lastUse    uint64
}

func (p *refPrefetcher) Observe(line uintptr) []uintptr {
	p.clock++
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid || (line != s.lastLine+uintptr(int(s.dir)) && line != s.lastLine) {
			continue
		}
		s.lastUse = p.clock
		if line == s.lastLine {
			return nil
		}
		s.lastLine = line
		s.confidence = min(s.confidence+1, prefetchConfidence)
		if s.confidence < prefetchConfidence {
			return nil
		}
		return p.propose(s, line)
	}
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid || s.confidence >= prefetchConfidence {
			continue
		}
		switch line {
		case s.lastLine + 1:
			s.dir = +1
		case s.lastLine - 1:
			s.dir = -1
		default:
			continue
		}
		s.lastUse = p.clock
		s.lastLine = line
		s.confidence = prefetchConfidence
		return p.propose(s, line)
	}
	victim := -1
	for i, s := range p.streams {
		if !s.valid {
			victim = i
			break
		}
		if victim == -1 || s.lastUse < p.streams[victim].lastUse {
			victim = i
		}
	}
	p.streams[victim] = refStream{valid: true, lastLine: line, dir: 1, confidence: 1, lastUse: p.clock}
	return nil
}

// propose lists, nearest first, the lines up to depth ahead of line in the
// stream's direction that the stream has not proposed yet, and moves the
// stream's frontier (0 while it has proposed nothing) to the furthest.
func (p *refPrefetcher) propose(s *refStream, line uintptr) []uintptr {
	var out []uintptr
	if s.dir > 0 {
		target := line + uintptr(p.depth)
		for l := line + 1; l <= target; l++ {
			if s.lastPF < line+1 || s.lastPF > target || l > s.lastPF {
				out = append(out, l)
			}
		}
		s.lastPF = max(s.lastPF, target)
		return out
	}
	if line < uintptr(p.depth) {
		return nil
	}
	target := line - uintptr(p.depth)
	fresh := s.lastPF == 0 || s.lastPF > line-1 || s.lastPF < target
	for l := line - 1; l+1 > target; l-- {
		if fresh || l < s.lastPF {
			out = append(out, l)
		}
	}
	if s.lastPF == 0 || target < s.lastPF {
		s.lastPF = target
	}
	return out
}

// fuzzLines decodes data into a line-address stream over four cursors that
// start far apart (the first at line 0, so descending streams reach the
// bottom of the address space): each byte moves cursor b>>6 by
// int(b&63)-32 lines, stopping at 0, and accesses the line it lands on.
func fuzzLines(data []byte) []uintptr {
	cursors := [4]uintptr{0, 1 << 12, 1 << 24, 1 << 40}
	lines := make([]uintptr, 0, len(data))
	for _, b := range data {
		c := &cursors[b>>6]
		if d := int(b&63) - 32; d < 0 && uintptr(-d) > *c {
			*c = 0
		} else {
			*c += uintptr(d)
		}
		lines = append(lines, *c)
	}
	return lines
}

// fuzzStep is the byte that moves cursor c by d lines (-32 <= d < 32).
func fuzzStep(c, d int) byte { return byte(c<<6 | (d + 32)) }

// FuzzPrefetcherMatchesReference replays a decoded line stream through
// Prefetcher and refPrefetcher at the fuzzed depth. After every Observe the
// proposed lines and every slot's lastLine, lastPF, dir and confidence must
// agree: the merged scan, the recency list and the reject filter are an
// optimization of the reference, not a different policy. The filter's
// counts must also equal a recount from the valid slots after every
// Observe: a count too low breaks exactness only once some later access
// needs that byte, and the recount catches it at once.
func FuzzPrefetcherMatchesReference(f *testing.F) {
	var asc, desc, inter, random []byte
	for i := 0; i < 64; i++ {
		asc = append(asc, fuzzStep(1, +1))
		desc = append(desc, fuzzStep(0, -1)) // reaches line 0 and stays
		inter = append(inter, fuzzStep(i%3+1, []int{+1, -1, +2}[i%3]))
	}
	desc = slices.Concat([]byte{fuzzStep(0, 31), fuzzStep(0, 31)}, desc)
	x := uint64(0x9e3779b97f4a7c15)
	for len(random) < 4096 { // enough fresh lines to evict every slot many times
		x = x*6364136223846793005 + 1442695040888963407
		random = append(random, byte(x>>56))
	}
	for _, depth := range []uint8{1, 4, 16} {
		for _, data := range [][]byte{asc, desc, inter, random} {
			f.Add(depth, data)
		}
	}
	f.Fuzz(func(t *testing.T, depth uint8, data []byte) {
		d := 1 + int(depth%32)
		opt := NewPrefetcher(d)
		ref := &refPrefetcher{depth: d}
		for k, line := range fuzzLines(data) {
			got, want := opt.Observe(line), ref.Observe(line)
			if !slices.Equal(got, want) {
				t.Fatalf("depth %d, access %d (line %d): proposed %v, reference %v", d, k, line, got, want)
			}
			if err := sameStreams(opt, ref); err != nil {
				t.Fatalf("depth %d, access %d (line %d): %v", d, k, line, err)
			}
			if err := sameFilter(opt); err != nil {
				t.Fatalf("depth %d, access %d (line %d): %v", d, k, line, err)
			}
		}
	})
}

// sameStreams compares every stream slot of p with the reference; slots the
// reference has not allocated must still be zero in p.
func sameStreams(p *Prefetcher, ref *refPrefetcher) error {
	for i, s := range ref.streams {
		got := [4]uint64{uint64(p.lastLine[i]), uint64(p.lastPF[i]), uint64(p.dir[i]), uint64(p.confidence[i])}
		want := [4]uint64{uint64(s.lastLine), uint64(s.lastPF), uint64(s.dir), uint64(s.confidence)}
		if got != want {
			return fmt.Errorf("slot %d (lastLine, lastPF, dir, confidence) = %v, reference %v", i, got, want)
		}
	}
	return nil
}

// sameFilter recounts p's reject filter from its valid slots, one per low
// byte of each stream's lastLine-1, lastLine and lastLine+1, and reports
// the first byte whose count differs.
func sameFilter(p *Prefetcher) error {
	var want [256]uint8
	for _, last := range p.lastLine[:p.nValid] {
		want[uint8(last-1)]++
		want[uint8(last)]++
		want[uint8(last+1)]++
	}
	for b := range want {
		if p.cand[b] != want[b] {
			return fmt.Errorf("filter count for low byte %d = %d, recount %d", b, p.cand[b], want[b])
		}
	}
	return nil
}
