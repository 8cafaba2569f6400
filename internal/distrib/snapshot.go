package distrib

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gpu"
)

// SnapshotFile is the state file's name inside CentralConfig.SnapshotDir.
const SnapshotFile = "central.snap.json"

// AgentState is one registered agent's inventory in a snapshot.
type AgentState struct {
	Name string `json:"name"`
	Gen  int    `json:"gen"`
	GPUs int    `json:"gpus"`
}

// State is the serializable form of the central scheduler: everything
// needed to resume a run after a coordinator crash — the inventory and
// failure detector, which are the central's own, and the engine's
// checkpoint (jobs, placement, tickets, usage books), which only the
// engine reads and writes.
type State struct {
	// Epoch is the central incarnation that wrote the snapshot (at
	// least 1); a restore resumes at Epoch+1 so agents can fence the
	// dead incarnation's straggling messages.
	Epoch    int              `json:"epoch"`
	Timeouts int              `json:"timeouts"`
	Agents   []AgentState     `json:"agents"`
	Missed   map[string]int   `json:"missed,omitempty"`
	Engine   *core.Checkpoint `json:"engine"`
}

// Snapshot captures the scheduler's current state. Call between
// rounds (Run snapshots automatically when SnapshotDir is set).
func (c *Central) Snapshot() *State {
	st := &State{
		Epoch:    c.epoch,
		Timeouts: c.timeouts,
		Missed:   make(map[string]int, c.nMissed),
		Engine:   c.eng.Checkpoint(),
	}
	for _, a := range c.agents {
		st.Agents = append(st.Agents, AgentState{Name: a.name, Gen: int(a.gen), GPUs: a.gpus})
		if a.missed > 0 {
			st.Missed[a.name] = a.missed
		}
	}
	return st
}

// SaveSnapshot atomically writes the current state into
// dir/central.snap.json (write to a temp file, sync it, then rename,
// so a crash mid-write never leaves a truncated snapshot).
func (c *Central) SaveSnapshot(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(c.Snapshot(), "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(raw); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, SnapshotFile))
}

// maybeSnapshot persists state per the configured period.
func (c *Central) maybeSnapshot() error {
	if c.cfg.SnapshotDir == "" {
		return nil
	}
	if c.eng.Rounds()%c.cfg.SnapshotEvery != 0 {
		return nil
	}
	if err := c.SaveSnapshot(c.cfg.SnapshotDir); err != nil {
		return fmt.Errorf("distrib: snapshot after round %d: %w", c.eng.Rounds(), err)
	}
	c.note("snapshot_saved")
	return nil
}

// LoadSnapshot reads the snapshot in dir.
func LoadSnapshot(dir string) (*State, error) {
	raw, err := os.ReadFile(filepath.Join(dir, SnapshotFile))
	if err != nil {
		return nil, err
	}
	var st State
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("distrib: corrupt snapshot: %w", err)
	}
	return &st, nil
}

// RestoreCentral rebuilds a coordinator from a snapshot: inventory,
// failure-detector state and — through core.Restore — job records,
// placement, tickets and the usage books all resume where the crashed
// coordinator stopped. The policy is fresh (its round-to-round credit
// state is recomputed as scheduling resumes); cfg supplies operational
// knobs (timeouts, retry, snapshot dir) and its Specs/Tickets are
// ignored in favor of the snapshot's.
//
// Over the in-memory hub a restored central can resume immediately on
// the surviving transport. Over TCP the old process's connections
// died with it, so call WaitForRejoin to let agents re-register
// before scheduling.
func RestoreCentral(tr comm.Transport, policy core.Policy, cfg CentralConfig, st *State) (*Central, error) {
	if tr == nil || policy == nil {
		return nil, fmt.Errorf("distrib: nil transport or policy")
	}
	if st == nil || len(st.Agents) == 0 || st.Engine == nil {
		return nil, fmt.Errorf("distrib: snapshot has no agents or no engine state")
	}
	// No central writes these, and each would weaken a guard: fencing,
	// the timeout budget, the failure detector.
	bad := st.Epoch < 1 || st.Timeouts < 0
	for _, n := range st.Missed {
		bad = bad || n < 0
	}
	if bad {
		return nil, fmt.Errorf("distrib: snapshot has an epoch below 1 (%d), a negative timeout count (%d) or a negative miss count", st.Epoch, st.Timeouts)
	}
	// The restored central bumps past the snapshot's writer so the dead
	// incarnation's traffic is fenced on both sides.
	c, err := newCentral(tr, policy, cfg, st.Epoch+1)
	if err != nil {
		return nil, err
	}
	c.timeouts = st.Timeouts
	for _, a := range st.Agents {
		g := gpu.Generation(a.Gen)
		if a.Name == "" || !g.Valid() || a.GPUs <= 0 {
			return nil, fmt.Errorf("distrib: snapshot agent %q has invalid inventory", a.Name)
		}
		if _, dup := c.agentIdx[a.Name]; dup {
			return nil, fmt.Errorf("distrib: snapshot agent %q duplicated", a.Name)
		}
		c.agentIdx[a.Name] = len(c.agents)
		c.agents = append(c.agents, agent{name: a.Name, gen: g, gpus: a.GPUs})
	}
	if err := c.buildEngine(st.Engine); err != nil {
		return nil, fmt.Errorf("distrib: snapshot: %w", err)
	}
	for name, n := range st.Missed {
		ai, known := c.agentIdx[name]
		if !known {
			return nil, fmt.Errorf("distrib: snapshot misses unknown agent %q", name)
		}
		c.setMissed(ai, n)
	}
	c.note("restored")
	return c, nil
}

// WaitForRejoin blocks until n of the restored inventory's agents
// re-register (TCP agents reconnect after a central restart), acking
// each through the rejoin reconciliation. Everything received meanwhile
// takes the one inbound path: a corrupted registration is dropped, and
// a report is fenced or queued as late.
func (c *Central) WaitForRejoin(n int, timeout time.Duration) error {
	if c.eng == nil {
		return fmt.Errorf("distrib: no inventory to rejoin")
	}
	if n > len(c.agents) {
		return fmt.Errorf("distrib: waiting for %d rejoins with only %d known agents", n, len(c.agents))
	}
	//gflint:ignore wallclock rejoin deadline on a real transport, not simulated time
	if !c.receive(0, time.After(timeout), func() bool { return c.nRejoined >= n }) {
		return fmt.Errorf("distrib: transport closed during rejoin")
	}
	if c.nRejoined < n {
		return fmt.Errorf("distrib: only %d of %d agents rejoined", c.nRejoined, n)
	}
	return nil
}
