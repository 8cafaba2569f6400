package distrib

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/netchaos"
	"repro/internal/obs"
)

// tcpAttach gives a chaos run its endpoints on loopback TCP: "central"
// listens on a free port and every agent dials it, so the run speaks
// the real wire end to end. Every endpoint is closed when the test ends.
func tcpAttach(t *testing.T) attachFunc {
	var addr string
	return func(name string) (comm.Transport, error) {
		if name == "central" {
			srv, err := comm.ListenTCP(name, "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			addr = srv.Addr()
			t.Cleanup(func() { _ = srv.Close() })
			return srv, nil
		}
		cli, err := comm.DialTCP(name, addr)
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { _ = cli.Close() })
		return cli, nil
	}
}

// recvWithin returns the next envelope tr receives, failing the test
// after two seconds.
func recvWithin(t *testing.T, tr comm.Transport) comm.Envelope {
	t.Helper()
	select {
	case env, ok := <-tr.Recv():
		if !ok {
			t.Fatal("transport closed")
		}
		return env
	case <-time.After(2 * time.Second):
		t.Fatal("nothing received")
	}
	return comm.Envelope{}
}

// TestNetChaosMatrixOverTCP runs the partition-tolerance matrix on the
// real wire: every agent dials the central over loopback TCP, both ends
// of every link are wrapped by the one injector, and the central crashes
// and is restored mid-schedule, the new incarnation speaking through the
// surviving listener as the hub run's speaks through the surviving hub
// endpoint. The faulted run's per-user usage must equal the undisturbed
// hub baseline's, byte for byte, and every injected corruption must be
// detected: TCP carries Seq and Sum.
func TestNetChaosMatrixOverTCP(t *testing.T) {
	for _, seed := range []int64{42, 7, 911} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			ob := obs.New()
			cfg := NetChaosConfig(seed, t.TempDir())
			cfg.Obs = ob
			sum, err := runChaos(cfg, tcpAttach(t))
			if err != nil {
				t.Fatal(err)
			}
			checkNetChaosMatrix(t, sum, ob)
		})
	}
}

// TestCorruptPlanOverTCPIsDropped: a sealed plan whose payload is
// corrupted after sealing, as netchaos corrupts one, reaches an agent
// over TCP with the sender's Sum, so the agent counts it as
// corrupt_detected and neither executes nor answers it: its first
// report answers the clean plan sent next. Executing the corrupted plan
// (round 1048577) would also have the agent refuse every real plan
// after it as stale.
func TestCorruptPlanOverTCPIsDropped(t *testing.T) {
	srv, err := comm.ListenTCP("central", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := comm.DialTCP("agent-0", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	a, err := NewAgent(cli, "central", gpu.K80, 1)
	if err != nil {
		t.Fatal(err)
	}
	ob := obs.New()
	a.SetObserver(ob)
	done := make(chan error, 1)
	go func() { done <- a.Run() }()
	if _, ok := recvWithin(t, srv).Msg.(comm.Register); !ok {
		t.Fatal("expected Register first")
	}

	in := netchaos.New(netchaos.Config{Seed: 1, Faults: []netchaos.Fault{
		{Kind: netchaos.Corrupt, From: "central", To: "agent-0", Max: 1},
	}})
	wire := in.Wrap(srv)
	retry := comm.NewRetrier(comm.RetryPolicy{})
	for i := 0; i < 2; i++ { // the first goes out corrupted
		if err := retry.Send(wire, "agent-0", comm.Envelope{From: "central", Msg: fencePlan(1, 1, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if rep, ok := recvWithin(t, srv).Msg.(comm.RoundReport); !ok || rep.Round != 1 || rep.Epoch != 1 {
		t.Fatalf("first answer %+v, want the report for round 1 of epoch 1", rep)
	}
	if err := retry.Send(srv, "agent-0", comm.Envelope{From: "central", Msg: comm.Shutdown{}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, ev := range []struct {
		name string
		want float64
	}{{"corrupt_detected", 1}, {"plan_received", 1}, {"report_sent", 1}, {"stale_plan_dropped", 0}} {
		if n := ob.Value("gf_protocol_events_total", ev.name); n != ev.want {
			t.Errorf("%s = %v, want %v", ev.name, n, ev.want)
		}
	}
}

// TestHostileTCPFrames: a peer whose bytes are no gob Envelope is
// disconnected, and the server keeps serving the agent connected before
// it; a frame that decodes but breaks the envelope contract — no
// payload, unsealed (Sum 0) or unsequenced (Seq 0) — reaches the
// central's receive check, is counted as corrupt_detected and is never
// applied: the registrations they carry claim 8 GPUs, and the genuine
// agent's 2-GPU registration behind them on the same connection is the
// one the central records.
func TestHostileTCPFrames(t *testing.T) {
	srv, err := comm.ListenTCP("central", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ob := obs.New()
	c, err := NewCentral(srv, core.MustNewFairPolicy(core.FairConfig{}), CentralConfig{
		Specs: oneJobSpecs(t, "alice", 2), Quantum: 360, Obs: ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := comm.DialTCP("agent-0", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var otherType bytes.Buffer
	if err := gob.NewEncoder(&otherType).Encode(struct{ Unrelated []int }{[]int{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	text := []byte("GET / HTTP/1.1\r\n\r\n") // 'G' announces a 71-byte message
	for len(text) < 72 {
		text = append(text, 'x')
	}
	for _, junk := range []struct {
		name  string
		bytes []byte
	}{
		{"text", text},
		{"oversized count", []byte{0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}},
		{"gob of another type", otherType.Bytes()},
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(junk.bytes); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if n, err := conn.Read(make([]byte, 64)); err != io.EOF {
			t.Errorf("%s: read %d bytes, %v; want the server to hang up (EOF)", junk.name, n, err)
		}
		_ = conn.Close()
	}

	hostile := comm.Register{Agent: "agent-0", Gen: int(gpu.K80), GPUs: 8}
	seal := func(seq uint64) comm.Envelope {
		t.Helper()
		e, err := comm.Seal(comm.Envelope{Seq: seq, Msg: hostile})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	noPayload := seal(1)
	noPayload.Msg = nil
	for _, e := range []comm.Envelope{noPayload, {Seq: 2, Msg: hostile}, seal(0)} {
		if err := cli.Send("central", e); err != nil {
			t.Fatal(err)
		}
	}
	a, err := NewAgent(cli, "central", gpu.K80, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Run() }()
	if err := c.WaitForAgents(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := c.ecfg.Cluster.NumDevices(); n != 2 {
		t.Errorf("cluster has %d GPUs, want the genuine agent's 2", n)
	}
	sum, err := c.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Errorf("agent: %v", err)
	}
	if sum.Unfinished != 0 {
		t.Errorf("%d jobs unfinished", sum.Unfinished)
	}
	for _, ev := range []struct {
		name string
		want float64
	}{{"corrupt_detected", 3}, {"register_received", 1}, {"register_duplicate", 0}} {
		if n := ob.Value("gf_protocol_events_total", ev.name); n != ev.want {
			t.Errorf("%s = %v, want %v", ev.name, n, ev.want)
		}
	}
}
