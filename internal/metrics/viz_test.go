package metrics

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/job"
)

func vizFixture() *Timeline {
	tl := NewTimeline(3600, []job.UserID{"a", "b"})
	// Window 0: a and b split evenly, half the 4-GPU capacity busy.
	tl.Add(0, 0, 3600)
	tl.Add(0, 1, 3600)
	// Window 1: a alone at full capacity.
	tl.Add(3600, 0, 4*3600)
	// Window 2: idle (forced into existence by window 3).
	// Window 3: b only.
	tl.Add(3*3600+10, 1, 1800)
	return tl
}

// bar extracts the width-rune bar segment of a rendered line.
func bar(t *testing.T, line string, width int) string {
	t.Helper()
	i := strings.Index(line, ") ")
	if i < 0 {
		t.Fatalf("no bar in %q", line)
	}
	runes := []rune(line[i+2:])
	if len(runes) < width {
		t.Fatalf("bar too short in %q", line)
	}
	return string(runes[:width])
}

func TestRenderTimeline(t *testing.T) {
	var buf bytes.Buffer
	users := []job.UserID{"a", "b"}
	if err := RenderTimeline(&buf, vizFixture(), users, 40, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // legend + 4 windows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "a=a") || !strings.Contains(lines[0], "b=b") {
		t.Errorf("legend = %q", lines[0])
	}
	// Window 0: 25% a, 25% b, 50% idle → 10 a's, 10 b's, 20 dots.
	b0 := bar(t, lines[1], 40)
	if got := strings.Count(b0, "a"); got != 10 {
		t.Errorf("window 0 has %d a-cells, want 10:\n%s", got, lines[1])
	}
	if got := strings.Count(b0, "·"); got != 20 {
		t.Errorf("window 0 has %d idle cells, want 20", got)
	}
	if !strings.Contains(lines[1], "a:50%") || !strings.Contains(lines[1], "b:50%") {
		t.Errorf("window 0 shares missing: %q", lines[1])
	}
	// Window 1: all a.
	if got := strings.Count(bar(t, lines[2], 40), "a"); got != 40 {
		t.Errorf("window 1 has %d a-cells, want 40 (%q)", got, lines[2])
	}
	// Window 2: idle marker.
	if !strings.Contains(lines[3], "idle") {
		t.Errorf("window 2 not marked idle: %q", lines[3])
	}
}

func TestRenderTimelineNoCapacity(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, vizFixture(), []job.UserID{"a", "b"}, 20, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	// Without capacity, window 0 normalizes to its own total: 10 a's
	// and 10 b's on a 20-wide bar.
	if got := strings.Count(bar(t, lines[1], 20), "a"); got != 10 {
		t.Errorf("normalized window 0 has %d a-cells, want 10: %q", got, lines[1])
	}
}

func TestRenderTimelineDefaults(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, vizFixture(), []job.UserID{"a"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "[  0h–  1h)") {
		t.Errorf("time labels missing:\n%s", buf.String())
	}
}
