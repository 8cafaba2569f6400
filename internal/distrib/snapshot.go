package distrib

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/migrate"
	"repro/internal/placement"
	"repro/internal/profiler"
	"repro/internal/simclock"
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
// needed to resume a run after a coordinator crash. Job records carry
// the same checkpoint the wire protocol ships to agents, so a
// restored central re-dispatches from exactly the progress it had
// acknowledged — agents stay stateless either way.
type State struct {
	SavedRound int `json:"saved_round"`
	// Epoch is the central incarnation that wrote the snapshot; a
	// restore resumes at Epoch+1 so agents can fence the dead
	// incarnation's straggling messages.
	Epoch    int                       `json:"epoch,omitempty"`
	Now      simclock.Time             `json:"now"`
	Timeouts int                       `json:"timeouts"`
	Agents   []AgentState              `json:"agents"`
	Missed   map[string]int            `json:"missed,omitempty"`
	Pending  []job.Spec                `json:"pending,omitempty"`
	Active   []job.Checkpoint          `json:"active,omitempty"`
	Done     []job.Checkpoint          `json:"done,omitempty"`
	Prev     map[job.ID][]gpu.DeviceID `json:"prev,omitempty"`
	PrevGen  map[job.ID]gpu.Generation `json:"prev_gen,omitempty"`
	Usage    map[job.UserID]float64    `json:"usage,omitempty"`
	Tickets  map[job.UserID]float64    `json:"tickets,omitempty"`
}

// Snapshot captures the scheduler's current state. Call between
// rounds (Run snapshots automatically when SnapshotDir is set).
func (c *Central) Snapshot() *State {
	st := &State{
		SavedRound: c.rounds,
		Epoch:      c.epoch,
		Now:        c.now,
		Timeouts:   c.timeouts,
		Missed:     make(map[string]int, c.nMissed),
		Pending:    append([]job.Spec(nil), c.pending...),
		Prev:       make(map[job.ID][]gpu.DeviceID, len(c.prev)),
		PrevGen:    make(map[job.ID]gpu.Generation, len(c.prevGen)),
		Usage:      make(map[job.UserID]float64, len(c.usage)),
		Tickets:    make(map[job.UserID]float64, len(c.cfg.Tickets)),
	}
	for i, a := range c.agents {
		st.Agents = append(st.Agents, AgentState{Name: a.name, Gen: int(a.gen), GPUs: a.gpus})
		if c.missed[i] > 0 {
			st.Missed[a.name] = c.missed[i]
		}
	}
	for _, j := range c.jobs { // job-ID order: deterministic file contents
		st.Active = append(st.Active, j.Checkpoint())
	}
	for _, j := range c.done {
		st.Done = append(st.Done, j.Checkpoint())
	}
	for id, devs := range c.prev {
		st.Prev[id] = append([]gpu.DeviceID(nil), devs...)
	}
	for id, g := range c.prevGen {
		st.PrevGen[id] = g
	}
	for u, s := range c.usage {
		st.Usage[u] = s
	}
	for u, t := range c.cfg.Tickets {
		st.Tickets[u] = t
	}
	return st
}

// SaveSnapshot atomically writes the current state into
// dir/central.snap.json (write to a temp file, then rename, so a
// crash mid-write never leaves a truncated snapshot).
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
	every := c.cfg.SnapshotEvery
	if every <= 0 {
		every = 1
	}
	if c.rounds%every != 0 {
		return nil
	}
	if err := c.SaveSnapshot(c.cfg.SnapshotDir); err != nil {
		return fmt.Errorf("distrib: snapshot after round %d: %w", c.rounds, err)
	}
	c.cfg.Obs.NoteProtocol("snapshot_saved")
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
// job records, per-user usage and failure-detector state all resume
// where the crashed coordinator stopped. The policy is fresh (its
// round-to-round credit state is recomputed as scheduling resumes);
// cfg supplies operational knobs (timeouts, retry, snapshot dir) and
// its Specs/Tickets are ignored in favor of the snapshot's.
//
// Over the in-memory hub a restored central can resume immediately on
// the surviving transport. Over TCP the old process's connections
// died with it, so call WaitForRejoin to let agents re-register
// before scheduling.
func RestoreCentral(tr comm.Transport, policy core.Policy, cfg CentralConfig, st *State) (*Central, error) {
	if tr == nil || policy == nil {
		return nil, fmt.Errorf("distrib: nil transport or policy")
	}
	if st == nil || len(st.Agents) == 0 {
		return nil, fmt.Errorf("distrib: snapshot has no agents")
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 360
	}
	if (cfg.Costs == migrate.CostModel{}) {
		cfg.Costs = migrate.Default()
	}
	if cfg.ReportTimeout == 0 {
		cfg.ReportTimeout = 5 * time.Second
	}
	if cfg.MaxAgentTimeouts == 0 {
		cfg.MaxAgentTimeouts = 50
	}
	cfg.Tickets = make(map[job.UserID]float64, len(st.Tickets))
	for u, t := range st.Tickets {
		cfg.Tickets[u] = t
	}
	prof, err := profiler.New(0.25, 0, 1)
	if err != nil {
		return nil, err
	}
	c := &Central{
		cfg:      cfg,
		tr:       tr,
		policy:   policy,
		prof:     prof,
		agentIdx: make(map[string]int, len(st.Agents)),
		active:   make(map[job.ID]*job.Job),
		prev:     placement.Assignment{},
		prevGen:  make(map[job.ID]gpu.Generation, len(st.PrevGen)),
		usage:    make(map[job.UserID]float64, len(st.Usage)),
		now:      st.Now,
		rounds:   st.SavedRound,
		timeouts: st.Timeouts,
		// A legacy snapshot (Epoch 0) restores as epoch 1, same as a
		// fresh central; any newer snapshot bumps past its writer so
		// the dead incarnation's traffic is fenced on both sides.
		epoch: st.Epoch + 1,
	}
	c.initProtocol()
	c.retry = c.newRetrier()
	for _, a := range st.Agents {
		g := gpu.Generation(a.Gen)
		if a.Name == "" || !g.Valid() || a.GPUs <= 0 {
			return nil, fmt.Errorf("distrib: snapshot agent %q has invalid inventory", a.Name)
		}
		if _, dup := c.agentIdx[a.Name]; dup {
			return nil, fmt.Errorf("distrib: snapshot agent %q duplicated", a.Name)
		}
		c.agentIdx[a.Name] = len(c.agents)
		c.agents = append(c.agents, agentInfo{name: a.Name, gen: g, gpus: a.GPUs})
	}
	if err := c.buildCluster(); err != nil {
		return nil, err
	}
	for name, n := range st.Missed {
		ai, known := c.agentIdx[name]
		if !known {
			return nil, fmt.Errorf("distrib: snapshot misses unknown agent %q", name)
		}
		c.setMissed(ai, n)
	}
	c.pending = append([]job.Spec(nil), st.Pending...)
	for i := range c.pending {
		if err := c.pending[i].Validate(); err != nil {
			return nil, fmt.Errorf("distrib: snapshot pending: %w", err)
		}
	}
	jobs := make([]*job.Job, 0, len(st.Active))
	for _, cp := range st.Active {
		j, err := job.FromCheckpoint(cp)
		if err != nil {
			return nil, fmt.Errorf("distrib: snapshot active: %w", err)
		}
		if j.Finished() {
			return nil, fmt.Errorf("distrib: snapshot lists finished job %d as active", j.ID)
		}
		if c.active[j.ID] != nil {
			return nil, fmt.Errorf("distrib: snapshot lists job %d as active twice", j.ID)
		}
		c.active[j.ID] = j
		jobs = append(jobs, j)
	}
	slices.SortFunc(jobs, byJobID)
	c.jobs = jobs
	for _, cp := range st.Done {
		j, err := job.FromCheckpoint(cp)
		if err != nil {
			return nil, fmt.Errorf("distrib: snapshot done: %w", err)
		}
		if !j.Finished() {
			return nil, fmt.Errorf("distrib: snapshot lists unfinished job %d as done", j.ID)
		}
		c.done = append(c.done, j)
	}
	for id, devs := range st.Prev {
		if c.active[id] == nil {
			continue // job finished or lost between snapshot and crash
		}
		// Sorted, as placement leaves them: the round loop splits a
		// job's devices into per-server runs.
		c.prev[id] = slices.Clone(devs)
		slices.Sort(c.prev[id])
	}
	for id, g := range st.PrevGen {
		if c.active[id] == nil {
			continue
		}
		c.prevGen[id] = g
	}
	for u, s := range st.Usage {
		if s < 0 {
			return nil, fmt.Errorf("distrib: snapshot usage for %q negative", u)
		}
		c.usage[u] = s
	}
	cfg.Obs.NoteProtocol("restored")
	return c, nil
}

// WaitForRejoin blocks until n of the restored inventory's agents
// re-register (TCP agents reconnect after a central restart), acking
// each through the rejoin reconciliation.
func (c *Central) WaitForRejoin(n int, timeout time.Duration) error {
	if c.cluster == nil {
		return fmt.Errorf("distrib: no inventory to rejoin")
	}
	if n > len(c.agents) {
		return fmt.Errorf("distrib: waiting for %d rejoins with only %d known agents", n, len(c.agents))
	}
	//gflint:ignore wallclock rejoin deadline on a real transport, not simulated time
	deadline := time.After(timeout)
	seen := make(map[string]bool)
	for len(seen) < n {
		select {
		case env, ok := <-c.tr.Recv():
			if !ok {
				return fmt.Errorf("distrib: transport closed during rejoin")
			}
			reg, isReg := env.Msg.(comm.Register)
			if !isReg {
				continue
			}
			if c.handleRejoin(reg) {
				seen[reg.Agent] = true
			}
		case <-deadline:
			return fmt.Errorf("distrib: only %d of %d agents rejoined", len(seen), n)
		}
	}
	return nil
}
