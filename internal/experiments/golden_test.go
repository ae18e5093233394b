package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// The golden pins hold figure output to constants, not to another run
// of the same code: a change to the task pipeline that shifts a single
// event shows up here even when every run stays self-consistent.
// Fig09 exercises Fair Scheduler preemption of map attempts in the
// middle of their direct-output writes, the path most sensitive to how
// a killed attempt's in-flight I/O drains.

const goldenScale = 0.125

func stringDigest(s fmt.Stringer) string {
	sum := sha256.Sum256([]byte(s.String()))
	return fmt.Sprintf("%x", sum[:8])
}

func TestGoldenFigureOutput(t *testing.T) {
	cases := []struct {
		name string
		run  func() (fmt.Stringer, error)
		want string
	}{
		{"fig03a", func() (fmt.Stringer, error) { return Fig03(goldenScale, false) }, "dd7c2f4fb8ff327c"},
		{"fig09", func() (fmt.Stringer, error) { return Fig09(goldenScale) }, "9180f9a63ad98bb9"},
	}
	for _, c := range cases {
		out, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := stringDigest(out); got != c.want {
			t.Errorf("%s output digest = %s, want %s\n%s", c.name, got, c.want, out)
		}
	}
}

// TestGoldenShardedCoRun pins the Fig03-class co-run on the fabric at
// one worker: trace digest, event and message counts, and simulated
// duration.
func TestGoldenShardedCoRun(t *testing.T) {
	row, err := ShardsOnce(goldenScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("digest=%s events=%d messages=%d duration=%.1f violations=%d",
		row.Digest, row.Events, row.Messages, row.Duration, row.Violations)
	const want = "digest=559ca1777fe25574 events=428685 messages=147704 duration=391.6 violations=0"
	if got != want {
		t.Errorf("sharded co-run:\n got  %s\n want %s", got, want)
	}
}
