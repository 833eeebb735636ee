// Package kvstore implements a concurrent, ordered, in-memory key-value
// store over the simulated memory hierarchy. It stands in for MassTree in
// the paper's §4.7 case study: a cache-crafted tree whose upper levels stay
// cache-resident while leaf accesses are memory-bound, served by multiple
// threads with short critical sections.
//
// Structurally it is a hash-partitioned collection of B+-trees (a trie of
// B+-trees flattened to one level), each partition under a reader-writer
// lock — MassTree reads are non-blocking, and shared read locks are the
// closest simulated equivalent — so put/get scale with threads the way the
// paper's 1-8 thread runs do. Every node visit issues simulated memory
// loads, so the store's throughput responds to emulated NVM latency and
// bandwidth.
package kvstore

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/simos"
)

// order is the B+-tree fanout: keys per node.
const order = 16

// nodeBytes is the simulated footprint of one tree node: 16 keys (128 B) +
// 17 pointers (136 B) + header, rounded to cache lines.
const nodeBytes = 320

// keyLines is how many cache lines a node's key area spans.
const keyLines = 2

// Alloc abstracts the allocation source so a store can live in volatile
// DRAM (malloc) or persistent memory (the emulator's pmalloc).
type Alloc func(size uintptr) (uintptr, error)

// Config parameterizes a store.
type Config struct {
	// Partitions is the number of independently locked B+-trees.
	Partitions int
	// Alloc places tree nodes in simulated memory.
	Alloc Alloc
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Partitions <= 0 {
		return fmt.Errorf("kvstore: Partitions = %d, must be positive", c.Partitions)
	}
	if c.Alloc == nil {
		return fmt.Errorf("kvstore: nil Alloc")
	}
	return nil
}

// node is one B+-tree node. Key and pointer contents are mirrored host-side;
// simAddr anchors the node's simulated memory footprint so traversals cost
// real (simulated) loads.
type node struct {
	simAddr  uintptr
	leaf     bool
	keys     []uint64
	values   []uint64 // leaf payloads
	children []*node  // internal fanout
	next     *node    // leaf chaining for scans
}

// partition is one locked B+-tree. Reads take the lock shared — MassTree
// reads are non-blocking on real hardware, and a reader-writer lock is the
// closest simulated equivalent — while structural modifications take it
// exclusive.
type partition struct {
	mu   *simos.RWMutex
	root *node
	size int
}

// Store is the partitioned tree store.
type Store struct {
	cfg   Config
	parts []*partition
}

// New builds an empty store inside process p.
func New(p *simos.Process, cfg Config) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg}
	for i := 0; i < cfg.Partitions; i++ {
		root, err := s.newNode(true)
		if err != nil {
			return nil, err
		}
		s.parts = append(s.parts, &partition{
			mu:   p.NewRWMutex(fmt.Sprintf("kv-part-%d", i)),
			root: root,
		})
	}
	return s, nil
}

func (s *Store) newNode(leaf bool) (*node, error) {
	addr, err := s.cfg.Alloc(nodeBytes)
	if err != nil {
		return nil, fmt.Errorf("kvstore: allocating node: %w", err)
	}
	return &node{simAddr: addr, leaf: leaf}, nil
}

// partOf hashes a key to its partition.
func (s *Store) partOf(key uint64) *partition {
	h := key * 0x9e3779b97f4a7c15
	return s.parts[h>>40%uint64(len(s.parts))]
}

// Len reports the total number of stored keys.
func (s *Store) Len() int {
	n := 0
	for _, p := range s.parts {
		n += p.size
	}
	return n
}

// touchNode charges the simulated loads of visiting a node: the header line
// plus the key area, fetched in parallel as a modern core would.
func touchNode(t *simos.Thread, n *node, batch []uintptr) {
	batch = batch[:0]
	for l := 0; l <= keyLines; l++ {
		batch = append(batch, n.simAddr+uintptr(l*mem.LineSize))
	}
	t.LoadGroup(batch)
}

// searchCost charges the branch-and-compare work of a binary search.
func searchCost(t *simos.Thread, n int) {
	t.Compute(int64(8 + 4*n))
}

// opCost charges the fixed per-request work (hashing, dispatch, response
// marshalling) that accompanies every store operation.
const opCost = 350

// Get looks key up from thread t, reporting its value and presence.
func (s *Store) Get(t *simos.Thread, key uint64) (uint64, bool) {
	t.Compute(opCost)
	p := s.partOf(key)
	p.mu.RLock(t)
	defer p.mu.Unlock(t)
	batch := make([]uintptr, 0, keyLines+1)
	n := p.root
	for !n.leaf {
		touchNode(t, n, batch)
		searchCost(t, len(n.keys))
		n = n.children[childIndex(n.keys, key)]
	}
	touchNode(t, n, batch)
	searchCost(t, len(n.keys))
	for i, k := range n.keys {
		if k == key {
			// Load the value's line.
			t.Load(n.simAddr + uintptr((keyLines+1+i/8)*mem.LineSize))
			return n.values[i], true
		}
	}
	return 0, false
}

// Put inserts or updates key from thread t.
func (s *Store) Put(t *simos.Thread, key, value uint64) error {
	t.Compute(opCost)
	p := s.partOf(key)
	p.mu.Lock(t)
	defer p.mu.Unlock(t)

	batch := make([]uintptr, 0, keyLines+1)
	// Descend, remembering the path for splits.
	var path []*node
	n := p.root
	for !n.leaf {
		touchNode(t, n, batch)
		searchCost(t, len(n.keys))
		path = append(path, n)
		n = n.children[childIndex(n.keys, key)]
	}
	touchNode(t, n, batch)
	searchCost(t, len(n.keys))

	// Update in place?
	for i, k := range n.keys {
		if k == key {
			n.values[i] = value
			t.Store(n.simAddr + uintptr((keyLines+1+i/8)*mem.LineSize))
			return nil
		}
	}

	// Insert into the leaf.
	idx := childIndex(n.keys, key)
	n.keys = insertU64(n.keys, idx, key)
	n.values = insertU64(n.values, idx, value)
	t.Store(n.simAddr)                // header/count line
	t.Store(n.simAddr + mem.LineSize) // shifted key area
	t.Store(n.simAddr + 192)          // shifted value area
	p.size++

	// Split upward while overfull.
	child := n
	for i := len(path) - 1; len(child.keys) > order; i-- {
		sep, right, err := s.split(t, child)
		if err != nil {
			return err
		}
		if i < 0 {
			// Overfull root: grow a new root above it.
			newRoot, err := s.newNode(false)
			if err != nil {
				return err
			}
			newRoot.keys = []uint64{sep}
			newRoot.children = []*node{child, right}
			t.Store(newRoot.simAddr)
			p.root = newRoot
			break
		}
		parent := path[i]
		pidx := childIndex(parent.keys, sep)
		parent.keys = insertU64(parent.keys, pidx, sep)
		parent.children = insertNode(parent.children, pidx+1, right)
		t.Store(parent.simAddr)
		t.Store(parent.simAddr + mem.LineSize)
		child = parent
	}
	return nil
}

// split divides an overfull node in half, returning the separator key to
// lift into the parent and the new right sibling.
func (s *Store) split(t *simos.Thread, n *node) (sep uint64, right *node, err error) {
	right, err = s.newNode(n.leaf)
	if err != nil {
		return 0, nil, err
	}
	mid := len(n.keys) / 2
	sep = n.keys[mid]
	if n.leaf {
		right.keys = append(right.keys, n.keys[mid:]...)
		right.values = append(right.values, n.values[mid:]...)
		n.keys = n.keys[:mid]
		n.values = n.values[:mid]
		right.next = n.next
		n.next = right
	} else {
		// The separator moves up and out of both halves.
		right.keys = append(right.keys, n.keys[mid+1:]...)
		right.children = append(right.children, n.children[mid+1:]...)
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
	}
	t.Store(n.simAddr)
	t.Store(right.simAddr)
	t.Store(right.simAddr + mem.LineSize)
	t.Compute(200) // memmove bookkeeping
	return sep, right, nil
}

// Delete removes key from the store, reporting whether it was present.
// Leaves are not rebalanced on removal (the usual choice for in-memory
// stores: space is reclaimed on later splits), so the tree stays valid and
// lookups stay correct.
func (s *Store) Delete(t *simos.Thread, key uint64) bool {
	t.Compute(opCost)
	p := s.partOf(key)
	p.mu.Lock(t)
	defer p.mu.Unlock(t)
	batch := make([]uintptr, 0, keyLines+1)
	n := p.root
	for !n.leaf {
		touchNode(t, n, batch)
		searchCost(t, len(n.keys))
		n = n.children[childIndex(n.keys, key)]
	}
	touchNode(t, n, batch)
	searchCost(t, len(n.keys))
	for i, k := range n.keys {
		if k == key {
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			n.values = append(n.values[:i], n.values[i+1:]...)
			t.Store(n.simAddr)
			t.Store(n.simAddr + mem.LineSize)
			p.size--
			return true
		}
	}
	return false
}

// Scan visits up to limit keys in [from, ∞) in one partition's order,
// calling fn for each. It exists to exercise leaf chaining; cross-partition
// ordered scans are out of scope (as for a hash-partitioned MassTree).
func (s *Store) Scan(t *simos.Thread, from uint64, limit int, fn func(k, v uint64) bool) {
	p := s.partOf(from)
	p.mu.RLock(t)
	defer p.mu.Unlock(t)
	batch := make([]uintptr, 0, keyLines+1)
	n := p.root
	for !n.leaf {
		touchNode(t, n, batch)
		n = n.children[childIndex(n.keys, from)]
	}
	count := 0
	for n != nil && count < limit {
		touchNode(t, n, batch)
		for i, k := range n.keys {
			if k < from {
				continue
			}
			if count >= limit || !fn(k, n.values[i]) {
				return
			}
			count++
		}
		n = n.next
	}
}

// childIndex returns the number of keys < key (the descent index).
func childIndex(keys []uint64, key uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func insertU64(s []uint64, i int, v uint64) []uint64 {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertNode(s []*node, i int, v *node) []*node {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
