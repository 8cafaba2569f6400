// Package trace defines the scheduler's event stream — the one typed
// record every occurrence of a round is written as — and its exported
// form: the event log a run returns, written as CSV or JSON for offline
// analysis (the figures in EXPERIMENTS.md are regenerated from these).
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/ring"
	"repro/internal/simclock"
)

// Kind classifies an event.
type Kind string

// Event kinds the engine logs: they make up a run's exported trace.
const (
	KindArrival   Kind = "arrival"
	KindStart     Kind = "start"
	KindFinish    Kind = "finish"
	KindMigration Kind = "migration"
	KindTrade     Kind = "trade"
	KindFailure   Kind = "failure"
	KindRecovery  Kind = "recovery"

	// Fault-model events (see internal/faults).
	KindJobCrash     Kind = "jobcrash"     // job crashed, rolled back to checkpoint
	KindMigFail      Kind = "migfail"      // migration attempt failed; job stays put
	KindQuarantine   Kind = "quarantine"   // circuit breaker excluded a server
	KindUnquarantine Kind = "unquarantine" // quarantine cool-off expired
	KindDegrade      Kind = "degrade"      // server entered degraded (slowed) state
	KindDegradeEnd   Kind = "degrade-end"  // server back to full speed

	// Partition-tolerance events of the distributed coordinator.
	KindLeaseExpire   Kind = "lease-expire"   // cut-off agent's lease ran out; it parks
	KindPartitionHeal Kind = "partition-heal" // suspected agent reached the central again
	KindFenceReject   Kind = "fence-reject"   // report from a dead central epoch rejected
)

// Kinds only a live observer consumes: recorded in the same stream when
// one is attached, never logged (see Kind.LogIndex).
const (
	KindDecision Kind = "decision" // one job placed: where, and how the policy funded it
	KindUnplaced Kind = "unplaced" // scheduled jobs the round's placement could not fit
	KindComp     Kind = "comp"     // a user's failure-compensation books settled
	KindProtocol Kind = "protocol" // distributed-protocol event, by Name
	KindNet      Kind = "net"      // injected network fault, by Name
	KindEpoch    Kind = "epoch"    // the coordinator's incarnation number
	KindDegraded Kind = "degraded" // agents unheard-from but inside their lease
)

// logged lists the kinds of a run's exported trace; the log stores a
// record's kind as its index here.
var logged = [...]Kind{
	KindArrival, KindStart, KindFinish, KindMigration, KindTrade, KindFailure, KindRecovery,
	KindJobCrash, KindMigFail, KindQuarantine, KindUnquarantine, KindDegrade, KindDegradeEnd,
	KindLeaseExpire, KindPartitionHeal, KindFenceReject,
}

// NumLogged is how many kinds a run's exported trace holds.
const NumLogged = len(logged)

// LogIndex returns the kind's position among those of a run's exported
// trace, -1 for a kind only an observer consumes.
func (k Kind) LogIndex() int { return slices.Index(logged[:], k) }

// Record is one occurrence as it is recorded: a fixed-size value whose
// strings and device list alias their sources, so writing one allocates
// nothing. Text is rendered from it on export (Detail), not before.
// The event log keeps a logged record's payload in three words: a
// trade's X, Y and Z, any other kind's Job, X, N and M. So a trade
// carries no Job, N or M (Log.Append panics on one), and no logged kind
// but a trade has a Y or Z. Which payload fields a kind fills:
//
//	arrival        Name model, N gang
//	start          Gen
//	finish         X completion time (s), N migrations so far
//	migration      Gen destination, X cost (s)
//	trade          User buyer, Name seller, Gen fast, From slow, X fast GPUs, Y slow GPUs, Z price
//	jobcrash       X progress lost (MB), N crashes so far
//	migfail        N attempt, M backoff (rounds), X cost (s)
//	failure, recovery, quarantine, unquarantine, degrade-end: N server
//	degrade        N server, X slowdown factor
//	lease-expire, partition-heal: Name agent
//	fence-reject   Name agent, N the report's round, M its epoch
//	decision       Gen, From (the generation last run on), N gang, M 1 if migrated,
//	               Name reason, X and Y the user's credit before and after, Devs
//	unplaced       N jobs
//	comp           X deficit now (GPU-s), Y repaid this round (GPU-s)
//	protocol, net  Name event
//	epoch, degraded: N
type Record struct {
	At      simclock.Time
	Kind    Kind
	Job     job.ID
	User    job.UserID
	Name    string
	Gen     gpu.Generation
	From    gpu.Generation
	N, M    int32
	X, Y, Z float64
	Devs    []gpu.DeviceID
}

// Detail renders the record's payload as the exported trace's detail
// column.
func (r *Record) Detail() string {
	switch r.Kind {
	case KindArrival:
		return "model=" + r.Name + " gang=" + strconv.Itoa(int(r.N))
	case KindStart:
		return "gen=" + r.Gen.String()
	case KindFinish:
		return fmt.Sprintf("jct=%.0fs migrations=%d", r.X, r.N)
	case KindMigration:
		return fmt.Sprintf("to=%v cost=%.0fs", r.Gen, r.X)
	case KindTrade:
		return fmt.Sprintf("seller=%s fast=%v slow=%v dFast=%.2f dSlow=%.2f price=%.2f",
			r.Name, r.Gen, r.From, r.X, r.Y, r.Z)
	case KindJobCrash:
		return fmt.Sprintf("lostMB=%.1f crashes=%d", r.X, r.N)
	case KindMigFail:
		return fmt.Sprintf("attempt=%d backoff=%d cost=%.0fs", r.N, r.M, r.X)
	case KindFailure, KindRecovery, KindQuarantine, KindUnquarantine, KindDegradeEnd:
		return fmt.Sprintf("server=%d", r.N)
	case KindDegrade:
		return fmt.Sprintf("server=%d factor=%.2f", r.N, r.X)
	case KindLeaseExpire, KindPartitionHeal:
		return "agent=" + r.Name
	case KindFenceReject:
		return fmt.Sprintf("agent=%s round=%d epoch=%d", r.Name, r.N, r.M)
	}
	return ""
}

// Event is one exported row: a record with its payload rendered.
type Event struct {
	At     simclock.Time `json:"at"`
	Kind   Kind          `json:"kind"`
	Job    job.ID        `json:"job,omitempty"`
	User   job.UserID    `json:"user,omitempty"`
	Detail string        `json:"detail,omitempty"`
}

// Log is a run's event trace: the logged kinds of the stream, in
// order. Not safe for concurrent use.
//
// It keeps each record as a 48-byte entry with no pointer in it, so the
// garbage collector never scans what a run has logged, and each name a
// record carries (its user, a model, an agent) once, in a table of the
// names it has met. The engine enters its users at the start of a run
// (Intern); a model or agent name is entered the first time it is
// logged.
//
// By default the log grows without bound. SetCap turns it into a ring
// over the most recent events so unbounded-horizon runs and long sweeps
// keep memory flat: the name table grows only with the distinct names.
type Log struct {
	recs  ring.Ring[entry]
	strs  []string          // the names by position; strs[0] is "", nil until the first Intern or Append
	strAt map[string]uint32 // a name's position in strs
}

// entry is a logged Record as the log holds it — most of what a long
// run or a sweep's worth of results retains: no Devs (no logged kind
// has any), the kind as an index into logged, the user and the name as
// positions in the log's name table, and the payload in three words
// laid out by kind. A trade fills X, Y and Z; every other logged kind
// fills Job, X and N<<32|M (none has a Y or Z, and only a trade renders
// none of Job, N and M).
type entry struct {
	at         simclock.Time
	w          [3]uint64
	user, name uint32
	kind       uint8
	gen, from  int8
}

// namesSlack is the room Intern leaves beside the users for the model
// and agent names a run logs.
const namesSlack = 32

// Intern enters users in the name table, sized for them at once, so
// that Append never grows it for one of them.
func (l *Log) Intern(users []job.UserID) {
	if l.strs == nil {
		l.strs = make([]string, 1, 1+len(users)+namesSlack)
		l.strAt = make(map[string]uint32, 1+len(users)+namesSlack)
		l.strAt[""] = 0
	}
	for _, u := range users {
		l.intern(string(u))
	}
}

// intern returns s's position in the name table, entering it if new.
func (l *Log) intern(s string) uint32 {
	if l.strs == nil {
		l.Intern(nil)
	}
	i, ok := l.strAt[s]
	if !ok {
		i = uint32(len(l.strs))
		l.strs = append(l.strs, s)
		l.strAt[s] = i
	}
	return i
}

func (l *Log) event(e *entry) Event {
	r := Record{At: e.at, Kind: logged[e.kind], User: job.UserID(l.strs[e.user]), Name: l.strs[e.name],
		Gen: gpu.Generation(e.gen), From: gpu.Generation(e.from)}
	if r.Kind == KindTrade {
		r.X, r.Y, r.Z = math.Float64frombits(e.w[0]), math.Float64frombits(e.w[1]), math.Float64frombits(e.w[2])
	} else {
		r.Job, r.X, r.N, r.M = job.ID(e.w[0]), math.Float64frombits(e.w[1]), int32(e.w[2]>>32), int32(e.w[2])
	}
	return Event{At: r.At, Kind: r.Kind, Job: r.Job, User: r.User, Detail: r.Detail()}
}

// SetCap bounds the log to the most recent n events (n <= 0 removes
// the bound), dropping the oldest at once if more are held.
func (l *Log) SetCap(n int) { l.recs.SetCap(n) }

// Len returns the event count.
func (l *Log) Len() int { return l.recs.Len() }

// Append copies the logged kinds among rs into the log, evicting the
// oldest when capped and full. It panics on a trade that carries a Job,
// N or M: a trade's payload words hold X, Y and Z.
//
//gflint:noretain rs
func (l *Log) Append(rs ...Record) {
	for i := range rs {
		r := &rs[i]
		k := r.Kind.LogIndex()
		if k < 0 {
			continue
		}
		e := entry{at: r.At, user: l.intern(string(r.User)), name: l.intern(r.Name),
			kind: uint8(k), gen: int8(r.Gen), from: int8(r.From)}
		if r.Kind == KindTrade {
			if r.Job != 0 || r.N != 0 || r.M != 0 {
				panic(fmt.Sprintf("trace: trade with job %d, N %d, M %d: a trade logs none of them", r.Job, r.N, r.M))
			}
			e.w = [3]uint64{math.Float64bits(r.X), math.Float64bits(r.Y), math.Float64bits(r.Z)}
		} else {
			e.w = [3]uint64{uint64(r.Job), math.Float64bits(r.X), uint64(uint32(r.N))<<32 | uint64(uint32(r.M))}
		}
		l.recs.Push(e)
	}
}

// Events renders the log oldest-first.
func (l *Log) Events() []Event { return l.Filter("") }

// Filter renders the events of one kind (of every kind for "").
func (l *Log) Filter(kind Kind) []Event {
	out := []Event{}
	for i := 0; i < l.recs.Len(); i++ {
		if e := l.recs.At(i); kind == "" || logged[e.kind] == kind {
			out = append(out, l.event(e))
		}
	}
	return out
}

// WriteCSV emits the log with a header row.
func (l *Log) WriteCSV(w io.Writer) error { return WriteCSV(w, l.Events()) }

// WriteJSON emits the log as a JSON array (an empty log emits []).
func (l *Log) WriteJSON(w io.Writer) error { return WriteJSON(w, l.Events()) }

var csvHeader = []string{"at_seconds", "kind", "job", "user", "detail"}

// WriteCSV emits events with a header row.
func WriteCSV(w io.Writer, events []Event) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for _, e := range events {
		rec := []string{
			strconv.FormatFloat(float64(e.At), 'f', 3, 64),
			string(e.Kind),
			strconv.FormatInt(int64(e.Job), 10),
			string(e.User),
			e.Detail,
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits events as a JSON array (nil emits []).
func WriteJSON(w io.Writer, events []Event) error {
	if events == nil {
		events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(events); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// ReadCSV parses a stream written by WriteCSV. The header row is
// required and checked, so a workload CSV fed in by mistake fails
// loudly instead of half-parsing.
func ReadCSV(r io.Reader) ([]Event, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	for i, col := range csvHeader {
		if header[i] != col {
			return nil, fmt.Errorf("trace: header column %d is %q, want %q", i, header[i], col)
		}
	}
	var events []Event
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		at, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad at_seconds %q: %w", rec[0], err)
		}
		id, err := strconv.ParseInt(rec[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad job id %q: %w", rec[2], err)
		}
		events = append(events, Event{
			At:     simclock.Time(at),
			Kind:   Kind(rec[1]),
			Job:    job.ID(id),
			User:   job.UserID(rec[3]),
			Detail: rec[4],
		})
	}
}

// ReadJSON parses a stream written by WriteJSON.
func ReadJSON(r io.Reader) ([]Event, error) {
	var events []Event
	if err := json.NewDecoder(r).Decode(&events); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return events, nil
}
