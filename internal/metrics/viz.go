package metrics

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/job"
	"repro/internal/simclock"
)

// RenderTimeline writes the share-over-time figure as stacked ASCII
// bars, one row per window: each user owns a letter, idle capacity
// (when capacityGPUs > 0) shows as '·'.
//
//	[ 0h– 3h) aaaaaaaaaabbbbbbbbbb····  a:42% b:41%
//
// users determines both the letters (a, b, c, … in order) and the
// legend; width is the bar width in characters (0 means 40).
func RenderTimeline(w io.Writer, tl *Timeline, users []job.UserID, width int, capacityGPUs int) error {
	if width <= 0 {
		width = 40
	}
	letters := make(map[job.UserID]byte, len(users))
	at := make([]int, len(users)) // users[i]'s position in the timeline, -1 if it has none
	for i, u := range users {
		letters[u] = byte('a' + i%26)
		at[i] = slices.Index(tl.Users(), u)
	}

	var b strings.Builder
	b.WriteString("legend:")
	for _, u := range users {
		fmt.Fprintf(&b, " %c=%s", letters[u], u)
	}
	b.WriteString("\n")

	for _, win := range tl.Windows() {
		capGPUSecs := float64(capacityGPUs) * win.End.Sub(win.Start)
		total := win.Total()
		denom := total
		if capacityGPUs > 0 {
			denom = capGPUSecs
		}
		usage := func(i int) float64 {
			if at[i] < 0 {
				return 0
			}
			return win.ByUser[at[i]]
		}
		fmt.Fprintf(&b, "[%4s–%4s) ", shortTime(win.Start), shortTime(win.End))
		used := 0
		if denom > 0 {
			for i, u := range users {
				n := int(usage(i) / denom * float64(width))
				b.WriteString(strings.Repeat(string(letters[u]), n))
				used += n
			}
		}
		if used < width {
			b.WriteString(strings.Repeat("·", width-used))
		}
		if total > 0 {
			for i, u := range users {
				if fr := usage(i) / total; fr > 0.005 {
					fmt.Fprintf(&b, " %c:%.0f%%", letters[u], 100*fr)
				}
			}
		} else {
			b.WriteString(" idle")
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func shortTime(t simclock.Time) string {
	h := float64(t) / 3600
	if h == float64(int(h)) {
		return fmt.Sprintf("%dh", int(h))
	}
	return fmt.Sprintf("%.1fh", h)
}
