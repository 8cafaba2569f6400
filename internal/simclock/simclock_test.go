package simclock

import "testing"

func TestEmptyClock(t *testing.T) {
	if c := New(); c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
}

func TestRunUntil(t *testing.T) {
	c := New()
	c.RunUntil(15)
	if c.Now() != 15 {
		t.Fatalf("Now = %v, want 15", c.Now())
	}
	c.RunUntil(100)
	if c.Now() != 100 {
		t.Fatalf("Now = %v, want 100", c.Now())
	}
	c.RunUntil(40) // the clock only advances
	if c.Now() != 100 {
		t.Fatalf("Now = %v after RunUntil(40), want 100 still", c.Now())
	}
}

func TestTimeString(t *testing.T) {
	got := Time(3723.5).String()
	if got != "1h02m03.5s" {
		t.Fatalf("String = %q, want 1h02m03.5s", got)
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(100).Add(50)
	if tm != 150 {
		t.Fatalf("Add = %v", tm)
	}
	if d := Time(150).Sub(100); d != 50 {
		t.Fatalf("Sub = %v", d)
	}
}
