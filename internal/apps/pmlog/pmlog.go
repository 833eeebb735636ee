// Package pmlog is a crash-consistent, append-only write-ahead log in
// emulated persistent memory — the kind of persistent-memory software
// (Mnemosyne, NV-Heaps, PMFS logs) whose design trade-offs Quartz exists to
// evaluate. It follows the standard PM write protocol:
//
//  1. write the record payload into the log arena (ordinary stores),
//  2. flush the payload's cache lines to NVM,
//  3. only then update and flush the durable tail pointer.
//
// Payload-before-pointer ordering guarantees a crash never exposes a tail
// pointer covering unflushed bytes. Step 2 can use either the §3.1 pflush
// (stall per line, pessimistically serialized) or the §6 clflushopt+pcommit
// extension (independent lines drain in parallel; only the barrier waits),
// and records can be group-committed — the batch-size sweep in
// examples/walog shows the resulting durability-latency/throughput
// trade-off under different emulated NVM write latencies.
package pmlog

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/core"
	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/sim"
	"github.com/quartz-emu/quartz/internal/simos"
)

// headerBytes reserves the first line of the arena for the durable tail
// pointer (and epoch/CRC metadata in a real implementation).
const headerBytes = mem.LineSize

// Config parameterizes a log.
type Config struct {
	// Capacity is the log arena size in bytes (excluding the header line).
	Capacity uintptr
	// UsePCommit selects the §6 clflushopt+pcommit write model; false uses
	// serialized pflush per line (§3.1).
	UsePCommit bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Capacity < 4*mem.LineSize {
		return fmt.Errorf("pmlog: capacity %d too small (min %d)", c.Capacity, 4*mem.LineSize)
	}
	return nil
}

// Stats aggregates log activity.
type Stats struct {
	Appends      int64
	Commits      int64
	BytesWritten int64
	// CommitStall is the virtual time spent waiting for flushes at commit
	// barriers (plus per-line pflush stalls in pflush mode).
	CommitStall sim.Time
}

// Log is an append-only persistent log. It is confined to one thread at a
// time (callers serialize externally, as a WAL writer thread does).
type Log struct {
	emu *core.Emulator
	cfg Config

	base    uintptr // header line
	arena   uintptr // first payload byte
	head    uintptr // next append offset within the arena
	durable uintptr // bytes guaranteed durable (tail pointer contents)

	pendingRecords int64 // appended but not yet committed
	records        int64 // total appended
	durableRecords int64 // records covered by the last committed tail

	stats Stats
}

// New allocates the log arena in persistent memory via the emulator's
// pmalloc and initializes the header.
func New(emu *core.Emulator, t *simos.Thread, cfg Config) (*Log, error) {
	if emu == nil || t == nil {
		return nil, fmt.Errorf("pmlog: nil emulator or thread")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	base, err := emu.PMalloc(headerBytes + cfg.Capacity)
	if err != nil {
		return nil, fmt.Errorf("pmlog: allocating arena: %w", err)
	}
	l := &Log{emu: emu, cfg: cfg, base: base, arena: base + headerBytes}
	// Persist the empty header so recovery sees a valid (zero) tail.
	t.Store(l.base)
	emu.PFlush(t, l.base)
	return l, nil
}

// Stats returns a copy of the accumulated statistics.
func (l *Log) Stats() Stats { return l.stats }

// Records reports the total number of appended records.
func (l *Log) Records() int64 { return l.records }

// DurableRecords reports how many records a crash right now would preserve.
func (l *Log) DurableRecords() int64 { return l.durableRecords }

// DurableBytes reports the committed tail offset.
func (l *Log) DurableBytes() uintptr { return l.durable }

// Pending reports appended-but-uncommitted records.
func (l *Log) Pending() int64 { return l.pendingRecords }

// Free reports the remaining arena capacity.
func (l *Log) Free() uintptr { return l.cfg.Capacity - l.head }

// Append writes one record of the given payload size and flushes its lines
// per the configured write model. The record is NOT durable until Commit.
func (l *Log) Append(t *simos.Thread, size int) error {
	if size <= 0 {
		return fmt.Errorf("pmlog: record size %d", size)
	}
	total := uintptr(size+8+mem.LineSize-1) &^ (mem.LineSize - 1) // 8-byte length prefix, line-rounded
	if l.head+total > l.cfg.Capacity {
		return fmt.Errorf("pmlog: log full (%d free, %d needed); truncate first", l.Free(), total)
	}
	start := l.arena + l.head
	for off := uintptr(0); off < total; off += mem.LineSize {
		t.Store(start + off)
		if l.cfg.UsePCommit {
			l.emu.PFlushOpt(t, start+off)
		} else {
			before := t.Now()
			l.emu.PFlush(t, start+off)
			l.stats.CommitStall += t.Now() - before
		}
	}
	l.head += total
	l.records++
	l.pendingRecords++
	l.stats.Appends++
	l.stats.BytesWritten += int64(total)
	return nil
}

// Commit makes every appended record durable: it drains outstanding payload
// flushes (the pcommit barrier), then updates and flushes the tail pointer.
// On return, a crash preserves all committed records.
func (l *Log) Commit(t *simos.Thread) {
	if l.pendingRecords == 0 {
		return
	}
	start := t.Now()
	if l.cfg.UsePCommit {
		l.emu.PCommit(t) // payload lines ordered before the pointer update
	}
	t.Store(l.base) // new tail offset
	l.emu.PFlush(t, l.base)
	l.stats.CommitStall += t.Now() - start

	l.durable = l.head
	l.durableRecords = l.records
	l.pendingRecords = 0
	l.stats.Commits++
}

// Truncate discards the committed prefix (checkpoint complete), resetting
// the arena. Uncommitted records are an error: truncating under a writer
// that hasn't committed would lose acknowledged-nothing data silently.
func (l *Log) Truncate(t *simos.Thread) error {
	if l.pendingRecords != 0 {
		return fmt.Errorf("pmlog: %d uncommitted records; commit before truncating", l.pendingRecords)
	}
	l.head = 0
	l.durable = 0
	t.Store(l.base)
	l.emu.PFlush(t, l.base)
	return nil
}
