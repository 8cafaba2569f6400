package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// faultLog is an exported trace exercising every fault-model and
// partition kind plus non-ASCII user and detail strings (agent and
// model names are user-controlled).
func faultLog() []trace.Event {
	return []trace.Event{
		{At: 360, Kind: trace.KindArrival, Job: 3, User: "alice", Detail: "model=模型 gang=1"},
		{At: 720.5, Kind: trace.KindJobCrash, Job: 3, User: "alice", Detail: "lostMB=12.5 crashes=1"},
		{At: 1080, Kind: trace.KindMigFail, Job: 3, User: "alice", Detail: "attempt=1 backoff=2 cost=30s"},
		{At: 1440, Kind: trace.KindQuarantine, Detail: "server=2"},
		{At: 1800, Kind: trace.KindDegrade, Detail: "server=5 factor=0.50"},
		{At: 2160.25, Kind: trace.KindDegradeEnd, Detail: "server=5"},
		{At: 2520, Kind: trace.KindUnquarantine, Detail: "server=2"},
		{At: 2520, Kind: trace.KindLeaseExpire, Detail: "agent=k80-02 «rack, 3»"},
		{At: 2880, Kind: trace.KindPartitionHeal, Detail: "agent=k80-02 «rack, 3»"},
		{At: 2880, Kind: trace.KindFenceReject, Detail: "agent=k80-02 «rack, 3» round=7 epoch=1"},
		{At: 2880, Kind: trace.KindFinish, Job: 7, User: "böb", Detail: "jct=2520s migrations=0 ✓"},
	}
}

func TestEventRoundTripCSV(t *testing.T) {
	l := faultLog()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Errorf("CSV round trip mismatch:\n got %+v\nwant %+v", got, l)
	}
}

func TestEventRoundTripJSON(t *testing.T) {
	l := faultLog()
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Errorf("JSON round trip mismatch:\n got %+v\nwant %+v", got, l)
	}
}

func TestEventRoundTripEmpty(t *testing.T) {
	var l trace.Log

	var csvBuf bytes.Buffer
	if err := l.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("empty CSV produced %d events", len(events))
	}

	var jsonBuf bytes.Buffer
	if err := l.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	events, err = trace.ReadJSON(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("empty JSON produced %d events", len(events))
	}
}

// ReadCSV must reject a workload-jobs CSV (different header) rather
// than half-parse it as events.
func TestReadCSVRejectsWrongHeader(t *testing.T) {
	in := "user,model,gang,arrival_seconds,total_mb\nalice,resnet50,1,0,1000\n"
	if _, err := trace.ReadCSV(strings.NewReader(in)); err == nil {
		t.Fatal("workload CSV parsed as an event trace")
	}
}

// summarizeEvents accepts both on-disk formats end to end, including
// the fault kinds and non-ASCII strings.
func TestSummarizeEventsFiles(t *testing.T) {
	l := faultLog()
	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		write func(f *os.File) error
	}{
		{"events.csv", func(f *os.File) error { return trace.WriteCSV(f, l) }},
		{"events.json", func(f *os.File) error { return trace.WriteJSON(f, l) }},
	} {
		path := filepath.Join(dir, tc.name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.write(f); err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
		if err := summarizeEvents(path); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	if err := summarizeEvents(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file did not error")
	}
}
