package cache

// Prefetcher is a per-core stream prefetcher: it watches the line-address
// sequence of demand accesses, detects ascending or descending unit-stride
// streams, and proposes lines to fetch ahead of the demand stream.
//
// Prefetch effectiveness is latency-dependent by construction: proposed
// lines are inserted with a future arrival time, so a demand access that
// catches up with the prefetcher before the fill lands still pays the
// residual latency. This is what makes streaming workloads (STREAM,
// PageRank's edge arrays) insensitive to moderate latency increases but
// increasingly exposed as emulated NVM latency grows — the non-linearity in
// the paper's Figure 16.
//
// The table is laid out for Observe's hot path. Stream state lives in
// parallel fixed-size arrays (the scan reads compact per-field vectors
// instead of 48-byte records), and recency is an intrusive doubly-linked
// list over the slots instead of per-stream timestamps: every stream touch
// moves its slot to the MRU end, so the LRU victim is the list head in O(1)
// rather than a min-scan. Touch order is exactly increasing last-use time
// (one stream is touched per Observe), so the head is always the stream the
// reference timestamp min-scan would have picked. Invalid slots fill in
// index order — allocation only ever appends — so "first invalid way" is
// simply the next unused index.
//
// cand is an exact reject filter in front of the scan. An access can only
// continue, repeat or pair with a stream whose lastLine is within one line
// of it, so cand counts, per low byte, the valid streams whose lastLine-1,
// lastLine or lastLine+1 has that byte; a zero count for the access's low
// byte proves no stream matches, and Observe goes straight to allocation.
// A pointer chase takes that path on nearly every load.
type Prefetcher struct {
	depth int

	lastLine   [maxStreams]uintptr
	lastPF     [maxStreams]uintptr // furthest line already proposed
	dir        [maxStreams]int8    // +1 ascending, -1 descending
	confidence [maxStreams]int8

	// Recency list over the first nValid slots; head is LRU, tail is MRU.
	prev, next       [maxStreams]int8
	lruHead, lruTail int8
	nValid           int8

	cand [256]uint8

	// scratch backs the slice Observe returns, sized to depth once at
	// construction so proposing lines never allocates on the access path.
	scratch []uintptr
}

// prefetchConfidence is how many consecutive unit-stride hits arm a stream.
const prefetchConfidence = 2

// maxStreams bounds concurrently tracked streams, like hardware trackers.
const maxStreams = 16

// NewPrefetcher builds a stream prefetcher that runs depth lines ahead of a
// detected stream. A depth of zero disables prefetching.
func NewPrefetcher(depth int) *Prefetcher {
	p := &Prefetcher{depth: depth, lruHead: -1, lruTail: -1}
	if depth > 0 {
		p.scratch = make([]uintptr, 0, depth)
	}
	return p
}

// touch moves an in-list stream slot to the MRU end of the recency list.
func (p *Prefetcher) touch(i int) {
	if int8(i) == p.lruTail {
		return
	}
	pr, nx := p.prev[i], p.next[i]
	if pr >= 0 {
		p.next[pr] = nx
	} else {
		p.lruHead = nx
	}
	p.prev[nx] = pr // i is not the tail, so nx >= 0
	p.prev[i] = p.lruTail
	p.next[i] = -1
	p.next[p.lruTail] = int8(i)
	p.lruTail = int8(i)
}

// enlist appends a not-yet-listed slot at the MRU end.
func (p *Prefetcher) enlist(i int) {
	p.prev[i] = p.lruTail
	p.next[i] = -1
	if p.lruTail >= 0 {
		p.next[p.lruTail] = int8(i)
	} else {
		p.lruHead = int8(i)
	}
	p.lruTail = int8(i)
}

// window adds delta (±1) to the filter count of each low byte in the
// window of a stream at line last, last-1 through last+1.
func (p *Prefetcher) window(last uintptr, delta int) {
	d := uint8(delta)
	p.cand[uint8(last-1)] += d
	p.cand[uint8(last)] += d
	p.cand[uint8(last+1)] += d
}

// slide moves the filter window of a stream whose lastLine steps from last
// by dir (±1): one byte leaves the window's trailing edge, one joins ahead.
func (p *Prefetcher) slide(last uintptr, dir int8) {
	d := uintptr(int(dir))
	p.cand[uint8(last-d)]--
	p.cand[uint8(last+2*d)]++
}

// Observe records a demand access to the given line address and returns the
// line addresses that should be prefetched (possibly none). The returned
// slice aliases an internal scratch buffer and is valid only until the next
// Observe call — the core consumes it immediately, keeping the access path
// allocation-free.
//
// The reference logic is three sequential scans over the stream table:
// continuations (and repeats) first, then embryonic-stream pairing, then
// victim allocation (first invalid slot, else LRU). One merged pass
// collects the first continuation match (stopping there — nothing later in
// the table can matter) and the first pairing match; the victim needs no
// scan at all (see the recency list above), and an access the cand filter
// rejects skips the merged pass as well. Stream-state evolution is
// identical to the reference at a fraction of the table traffic, which
// matters because random access patterns (pointer chases) take the
// allocation path on every single load.
func (p *Prefetcher) Observe(lineAddr uintptr) []uintptr {
	if p.depth <= 0 {
		return nil
	}
	cont := -1 // first stream this access continues (or repeats)
	pair := -1 // first embryonic stream this access pairs with
	var pairDir int8
	n := int(p.nValid)
	if p.cand[uint8(lineAddr)] == 0 {
		n = 0 // no stream is within one line of the access
	}
	for i := 0; i < n; i++ {
		last := p.lastLine[i]
		if lineAddr == last+uintptr(int(p.dir[i])) || lineAddr == last {
			cont = i
			break
		}
		if pair == -1 && p.confidence[i] < prefetchConfidence {
			switch lineAddr {
			case last + 1:
				pair, pairDir = i, +1
			case last - 1:
				pair, pairDir = i, -1
			}
		}
	}
	switch {
	case cont != -1:
		p.touch(cont)
		if lineAddr == p.lastLine[cont] { // repeated access; refresh recency
			return nil
		}
		p.slide(p.lastLine[cont], p.dir[cont])
		p.lastLine[cont] = lineAddr
		if p.confidence[cont] < prefetchConfidence {
			p.confidence[cont]++
		}
		if p.confidence[cont] >= prefetchConfidence {
			return p.propose(cont, lineAddr)
		}
		return nil
	case pair != -1:
		p.touch(pair)
		p.slide(p.lastLine[pair], pairDir)
		p.dir[pair] = pairDir
		p.lastLine[pair] = lineAddr
		p.confidence[pair] = prefetchConfidence
		return p.propose(pair, lineAddr)
	default:
		var v int
		if int(p.nValid) < maxStreams {
			v = int(p.nValid)
			p.nValid++
			p.enlist(v)
		} else {
			v = int(p.lruHead)
			p.touch(v)
			p.window(p.lastLine[v], -1)
		}
		p.window(lineAddr, 1)
		p.lastLine[v] = lineAddr
		p.lastPF[v] = 0
		p.dir[v] = 1
		p.confidence[v] = 1
		return nil
	}
}

// propose returns the lines between stream i's prefetch frontier and
// lineAddr+depth (in stream direction), advancing the frontier. The result
// reuses p.scratch (at most depth lines fit between frontier and target, so
// the buffer never grows past its construction-time capacity).
func (p *Prefetcher) propose(i int, lineAddr uintptr) []uintptr {
	out := p.scratch[:0]
	if p.dir[i] > 0 {
		target := lineAddr + uintptr(p.depth)
		start := lineAddr + 1
		if pf := p.lastPF[i]; pf >= start && pf <= target {
			start = pf + 1
		}
		for l := start; l <= target; l++ {
			out = append(out, l)
		}
		if target > p.lastPF[i] {
			p.lastPF[i] = target
		}
	} else {
		if lineAddr < uintptr(p.depth) {
			return nil
		}
		target := lineAddr - uintptr(p.depth)
		start := lineAddr - 1
		if pf := p.lastPF[i]; pf != 0 && pf <= start && pf >= target {
			start = pf - 1
		}
		for l := start; l >= target; l-- {
			out = append(out, l)
			if l == 0 {
				break
			}
		}
		if p.lastPF[i] == 0 || target < p.lastPF[i] {
			p.lastPF[i] = target
		}
	}
	return out
}
