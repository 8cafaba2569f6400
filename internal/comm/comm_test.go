package comm

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func recvOne(t *testing.T, tr Transport) Envelope {
	t.Helper()
	select {
	case e, ok := <-tr.Recv():
		if !ok {
			t.Fatal("inbox closed")
		}
		return e
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for envelope")
	}
	return Envelope{}
}

func TestHubBasic(t *testing.T) {
	hub := NewHub()
	a, err := hub.Attach("central")
	if err != nil {
		t.Fatal(err)
	}
	b, err := hub.Attach("agent-1")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "central" || b.Name() != "agent-1" {
		t.Fatal("names wrong")
	}
	if err := b.Send("central", Envelope{From: "agent-1", Msg: Register{Agent: "agent-1", Gen: 3, GPUs: 4}}); err != nil {
		t.Fatal(err)
	}
	e := recvOne(t, a)
	reg, ok := e.Msg.(Register)
	if !ok || reg.GPUs != 4 || e.From != "agent-1" {
		t.Fatalf("got %+v", e)
	}
	if err := a.Send("agent-1", Envelope{From: "central", Msg: RegisterAck{OK: true}}); err != nil {
		t.Fatal(err)
	}
	if ack := recvOne(t, b).Msg.(RegisterAck); !ack.OK {
		t.Fatal("ack not ok")
	}
}

func TestHubErrors(t *testing.T) {
	hub := NewHub()
	a, _ := hub.Attach("a")
	if _, err := hub.Attach("a"); err == nil {
		t.Error("duplicate attach accepted")
	}
	if err := a.Send("ghost", Envelope{}); err == nil {
		t.Error("send to unknown endpoint succeeded")
	}
	b, _ := hub.Attach("b")
	_ = b.Close()
	if err := a.Send("b", Envelope{}); err == nil {
		t.Error("send to closed endpoint succeeded")
	}
	_ = b.Close() // double close is a no-op
}

func TestHubBackpressure(t *testing.T) {
	hub := NewHub()
	hubA, _ := hub.Attach("a")
	b, _ := hub.Attach("b")
	_ = hubA
	overflowed := false
	for i := 0; i < 1000; i++ {
		if err := b.Send("a", Envelope{From: "b", Msg: Shutdown{}}); err != nil {
			overflowed = true
			break
		}
	}
	if !overflowed {
		t.Error("unbounded inbox: expected overflow error")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	srv, err := ListenTCP("central", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := DialTCP("agent-1", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Agent announces itself.
	if err := cli.Send("central", Envelope{From: "agent-1", Msg: Register{Agent: "agent-1", Gen: 0, GPUs: 8}}); err != nil {
		t.Fatal(err)
	}
	e := recvOne(t, srv)
	if reg := e.Msg.(Register); reg.GPUs != 8 {
		t.Fatalf("register = %+v", reg)
	}

	// Central addresses the agent by name with a full round plan.
	plan := RoundPlan{
		Round:   3,
		Quantum: 360,
		Jobs: []JobAssignment{{
			JobID: 7, User: "alice", Model: "resnet50", Gang: 2,
			LocalGPUs: []int{0, 1}, DoneMB: 100, TotalMB: 1e6, GangRate: 5,
		}},
	}
	if err := srv.Send("agent-1", Envelope{From: "central", Msg: plan}); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, cli).Msg.(RoundPlan)
	if got.Round != 3 || len(got.Jobs) != 1 || got.Jobs[0].User != "alice" || got.Jobs[0].LocalGPUs[1] != 1 {
		t.Fatalf("plan = %+v", got)
	}

	// Report back.
	rep := RoundReport{Agent: "agent-1", Round: 3, Jobs: []JobProgress{{JobID: 7, DoneMB: 3700, UsedSecs: 357}}}
	if err := cli.Send("central", Envelope{From: "agent-1", Msg: rep}); err != nil {
		t.Fatal(err)
	}
	if r := recvOne(t, srv).Msg.(RoundReport); r.Jobs[0].DoneMB != 3700 {
		t.Fatalf("report = %+v", r)
	}
}

func TestTCPMultipleAgents(t *testing.T) {
	srv, err := ListenTCP("central", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 5
	clients := make([]*TCPClient, n)
	for i := range clients {
		name := fmt.Sprintf("agent-%d", i)
		c, err := DialTCP(name, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
		if err := c.Send("central", Envelope{From: name, Msg: Register{Agent: name, GPUs: i + 1}}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]int{}
	for i := 0; i < n; i++ {
		e := recvOne(t, srv)
		seen[e.From] = e.Msg.(Register).GPUs
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("agent-%d", i)
		if seen[name] != i+1 {
			t.Fatalf("agent %s registered %d GPUs", name, seen[name])
		}
		// Address each one individually.
		if err := srv.Send(name, Envelope{From: "central", Msg: Shutdown{}}); err != nil {
			t.Fatal(err)
		}
		if _, ok := recvOne(t, clients[i]).Msg.(Shutdown); !ok {
			t.Fatalf("agent %s did not get shutdown", name)
		}
	}
}

func TestTCPSendToUnknownPeer(t *testing.T) {
	srv, err := ListenTCP("central", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Send("nobody", Envelope{}); err == nil {
		t.Error("send to unknown peer succeeded")
	}
}

func TestTCPServerClose(t *testing.T) {
	srv, err := ListenTCP("central", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialTCP("agent", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Send("central", Envelope{From: "agent", Msg: Register{Agent: "agent"}}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, srv)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close() // idempotent
	// Client's recv loop should observe EOF and close its inbox.
	select {
	case _, ok := <-cli.Recv():
		if ok {
			// a queued frame is fine; drain until closed
			for range cli.Recv() {
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("client inbox did not close after server shutdown")
	}
}

func TestClientSendAfterServerGone(t *testing.T) {
	srv, err := ListenTCP("central", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialTCP("agent", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_ = srv.Close()
	// Wait for the client's recv loop to notice EOF.
	for range cli.Recv() {
	}
	// Sends now fail (possibly after one buffered write) rather than
	// hanging.
	var failed bool
	for i := 0; i < 10; i++ {
		if err := cli.Send("central", Envelope{From: "agent", Msg: Shutdown{}}); err != nil {
			failed = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !failed {
		t.Fatal("sends kept succeeding against a dead server")
	}
}

func TestServerNameAndDoubleClientClose(t *testing.T) {
	srv, err := ListenTCP("boss", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Name() != "boss" {
		t.Errorf("Name = %q", srv.Name())
	}
	cli, err := DialTCP("agent", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if cli.Name() != "agent" {
		t.Errorf("client Name = %q", cli.Name())
	}
	_ = cli.Close()
	_ = cli.Close() // idempotent
}

// TestHubStaleCloseKeepsSuccessor: closing an endpoint a second time
// after its name was attached again must not detach the new endpoint.
func TestHubStaleCloseKeepsSuccessor(t *testing.T) {
	hub := NewHub()
	sender, _ := hub.Attach("central")
	old, _ := hub.Attach("a")
	_ = old.Close()
	live, err := hub.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	_ = old.Close()
	if err := sender.Send("a", Envelope{From: "central", Msg: Shutdown{}}); err != nil {
		t.Fatalf("send to the live successor: %v", err)
	}
	if _, ok := recvOne(t, live).Msg.(Shutdown); !ok {
		t.Fatal("live successor did not get the envelope")
	}
}

// TestTCPServerCloseRacesDelivery closes a server while four clients
// are still sending to it, for up to 2 s. A delivery that lands after
// Close closed the inbox panics the test binary.
func TestTCPServerCloseRacesDelivery(t *testing.T) {
	stop := time.Now().Add(2 * time.Second)
	for i := 0; time.Now().Before(stop); i++ {
		srv, err := ListenTCP("central", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		clients := make([]*TCPClient, 4)
		for k := range clients {
			name := fmt.Sprintf("agent-%d", k)
			if clients[k], err = DialTCP(name, srv.Addr()); err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(c *TCPClient) {
				defer wg.Done()
				for n := 0; n < 200; n++ {
					if c.Send("central", Envelope{From: name, Msg: Shutdown{}}) != nil {
						return
					}
				}
			}(clients[k])
		}
		time.Sleep(time.Duration(i%151) * time.Microsecond)
		_ = srv.Close()
		for _, c := range clients {
			_ = c.Close()
		}
		wg.Wait()
	}
}
