// Package machine assembles the simulated hardware: multi-socket NUMA
// topology, per-core private L1/L2 caches, a socket-shared L3, per-socket
// integrated memory controllers with throttle registers, per-core PMC banks,
// and a shared DVFS governor. Presets reproduce the paper's three testbeds
// (Table 2): Sandy Bridge (Xeon E5-2450), Ivy Bridge (E5-2660 v2), and
// Haswell (E5-2650 v3).
package machine

import (
	"fmt"

	"github.com/quartz-emu/quartz/internal/cache"
	"github.com/quartz-emu/quartz/internal/cpu"
	"github.com/quartz-emu/quartz/internal/mem"
	"github.com/quartz-emu/quartz/internal/perf"
	"github.com/quartz-emu/quartz/internal/sim"
)

// NodeShift positions NUMA node ids in the simulated physical address space:
// node n owns addresses [n<<NodeShift, (n+1)<<NodeShift).
const NodeShift = 40

// The simulator is 64-bit only: node 1 starts at 1<<NodeShift, past the
// end of a 32-bit address space. This declaration overflows uintptr on a
// 32-bit target, so such a build stops here instead of deep in simos.
const _ = uintptr(1) << NodeShift

// Config describes a machine to assemble.
type Config struct {
	// Name labels the machine (e.g. "Intel Xeon E5-2660 v2").
	Name string
	// Family selects the PMC event file and fidelity model.
	Family perf.Family
	// Sockets is the number of CPU sockets (== NUMA nodes).
	Sockets int
	// CoresPerSocket is the number of usable hardware threads per socket.
	CoresPerSocket int
	// Core configures each core.
	Core cpu.Config
	// L1, L2 configure each core's private caches; L3 the socket-shared
	// last-level cache.
	L1, L2, L3 cache.Config
	// Mem configures each socket's memory controller.
	Mem mem.Config
	// LocalLat and RemoteLat are the end-to-end load-to-use latencies for
	// local and remote DRAM (Table 2 "Aver" columns).
	LocalLat, RemoteLat sim.Time
	// Fidelity overrides the family's default counter fidelity when
	// non-zero.
	Fidelity perf.Fidelity
	// DVFSLowFactor / DVFSHalfPeriod configure the (initially disabled)
	// frequency governor.
	DVFSLowFactor  float64
	DVFSHalfPeriod sim.Time
}

// Validate reports whether the machine configuration is assemblable.
func (c Config) Validate() error {
	if c.Sockets <= 0 || c.CoresPerSocket <= 0 {
		return fmt.Errorf("machine %q: sockets/cores must be positive (got %d/%d)", c.Name, c.Sockets, c.CoresPerSocket)
	}
	if err := c.Core.Validate(); err != nil {
		return fmt.Errorf("machine %q: %w", c.Name, err)
	}
	for _, cc := range []cache.Config{c.L1, c.L2, c.L3} {
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("machine %q: %w", c.Name, err)
		}
	}
	if err := c.Mem.Validate(); err != nil {
		return fmt.Errorf("machine %q: %w", c.Name, err)
	}
	walk := c.L1.LookupLat + c.L2.LookupLat + c.L3.LookupLat
	if c.LocalLat <= walk {
		return fmt.Errorf("machine %q: LocalLat %v must exceed cache walk %v", c.Name, c.LocalLat, walk)
	}
	if c.RemoteLat < c.LocalLat {
		return fmt.Errorf("machine %q: RemoteLat %v below LocalLat %v", c.Name, c.RemoteLat, c.LocalLat)
	}
	return nil
}

// Socket groups one CPU package's shared resources.
type Socket struct {
	ID    int
	L3    *cache.Cache
	Ctrl  *mem.Controller
	Cores []*cpu.Core
}

// Machine is an assembled simulated server.
type Machine struct {
	cfg     Config
	sockets []*Socket
	cores   []*cpu.Core
	dvfs    *cpu.DVFS

	serviceLocal  sim.Time
	serviceRemote sim.Time
}

// New assembles a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fid := cfg.Fidelity
	if fid == (perf.Fidelity{}) {
		fid = perf.DefaultFidelity(cfg.Family)
	}
	walk := cfg.L1.LookupLat + cfg.L2.LookupLat + cfg.L3.LookupLat
	m := &Machine{
		cfg:           cfg,
		dvfs:          cpu.NewDVFS(cfg.DVFSLowFactor, cfg.DVFSHalfPeriod),
		serviceLocal:  cfg.LocalLat - walk,
		serviceRemote: cfg.RemoteLat - walk,
	}
	coreID := 0
	for s := 0; s < cfg.Sockets; s++ {
		l3, err := cache.New(cfg.L3)
		if err != nil {
			return nil, fmt.Errorf("machine %q: socket %d L3: %w", cfg.Name, s, err)
		}
		ctrl, err := mem.NewController(cfg.Mem)
		if err != nil {
			return nil, fmt.Errorf("machine %q: socket %d controller: %w", cfg.Name, s, err)
		}
		sock := &Socket{ID: s, L3: l3, Ctrl: ctrl}
		for i := 0; i < cfg.CoresPerSocket; i++ {
			l1, err := cache.New(cfg.L1)
			if err != nil {
				return nil, fmt.Errorf("machine %q: core %d L1: %w", cfg.Name, coreID, err)
			}
			l2, err := cache.New(cfg.L2)
			if err != nil {
				return nil, fmt.Errorf("machine %q: core %d L2: %w", cfg.Name, coreID, err)
			}
			ctr := perf.NewCounters(cfg.Family, fid)
			core, err := cpu.NewCore(coreID, s, cfg.Core, l1, l2, l3, ctr, m, m.dvfs)
			if err != nil {
				return nil, fmt.Errorf("machine %q: core %d: %w", cfg.Name, coreID, err)
			}
			sock.Cores = append(sock.Cores, core)
			m.cores = append(m.cores, core)
			coreID++
		}
		m.sockets = append(m.sockets, sock)
	}
	return m, nil
}

// Config reports the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Family reports the machine's processor family.
func (m *Machine) Family() perf.Family { return m.cfg.Family }

// Sockets returns the machine's sockets.
func (m *Machine) Sockets() []*Socket { return m.sockets }

// Socket returns socket s.
func (m *Machine) Socket(s int) *Socket { return m.sockets[s] }

// Cores returns every core, in id order.
func (m *Machine) Cores() []*cpu.Core { return m.cores }

// Core returns core id.
func (m *Machine) Core(id int) *cpu.Core { return m.cores[id] }

// DVFS exposes the shared frequency governor.
func (m *Machine) DVFS() *cpu.DVFS { return m.dvfs }

// NodeBase reports the first physical address owned by NUMA node n.
func (m *Machine) NodeBase(n int) uintptr { return uintptr(n) << NodeShift }

// HomeNode implements cpu.MemorySystem.
func (m *Machine) HomeNode(addr uintptr) int {
	n := int(addr >> NodeShift)
	if n >= len(m.sockets) {
		n = len(m.sockets) - 1
	}
	return n
}

// Access implements cpu.MemorySystem: it routes the request to the home
// controller with the right NUMA service latency.
func (m *Machine) Access(now sim.Time, addr uintptr, kind mem.AccessKind, fromSocket int) sim.Time {
	home := m.HomeNode(addr)
	service := m.serviceLocal
	if home != fromSocket {
		service = m.serviceRemote
	}
	return m.sockets[home].Ctrl.Access(now, addr, kind, service)
}
