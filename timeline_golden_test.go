package cachecraft

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cachecraft/internal/version"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata golden files")

// goldenTimelinePath pins the probe timeline of three quick cells. The
// file is keyed to version.SimRevision: a probe track may only change
// together with a revision bump and a regeneration with -update.
const goldenTimelinePath = "testdata/timeline_golden.json"

// goldenTimelineCells span the probe points: random/cachecraft drives
// reconstruction and the MSHR file, histogram/ecc-cache the RMW and
// redundancy-cache paths, stream/none the unprotected bypass.
var goldenTimelineCells = []struct{ workload, scheme string }{
	{"random", "cachecraft"},
	{"histogram", "ecc-cache"},
	{"stream", "none"},
}

// goldenTrack identifies one (cell, series) NDJSON line of a timeline
// export by its header fields and the SHA-256 of the line itself.
type goldenTrack struct {
	Cell    string `json:"cell"`
	Series  string `json:"series"`
	Mode    string `json:"mode"`
	Samples int    `json:"samples"`
	SHA256  string `json:"sha256"`
}

type goldenTimeline struct {
	SimRevision string        `json:"sim_revision"`
	Window      uint64        `json:"window"`
	Tracks      []goldenTrack `json:"tracks"`
}

// timelineTracks runs every golden cell with probes (and optionally the
// audit layer) and digests its NDJSON export line by line.
func timelineTracks(t *testing.T, window uint64, audited bool) []goldenTrack {
	t.Helper()
	var out []goldenTrack
	for _, c := range goldenTimelineCells {
		_, p, err := RunProbed(QuickConfig(), c.workload, c.scheme, window, audited)
		if err != nil {
			t.Fatalf("%s/%s (audited=%v): %v", c.workload, c.scheme, audited, err)
		}
		tl := NewTimeline()
		tl.AddCell(c.workload+"/"+c.scheme, p)
		var buf bytes.Buffer
		if err := tl.WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n")) {
			var rec struct {
				Cell   string `json:"cell"`
				Series struct {
					Name    string            `json:"name"`
					Mode    string            `json:"mode"`
					Samples []json.RawMessage `json:"samples"`
				} `json:"series"`
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("%s/%s: bad NDJSON line: %v", c.workload, c.scheme, err)
			}
			sum := sha256.Sum256(line)
			out = append(out, goldenTrack{
				Cell:    rec.Cell,
				Series:  rec.Series.Name,
				Mode:    rec.Series.Mode,
				Samples: len(rec.Series.Samples),
				SHA256:  hex.EncodeToString(sum[:]),
			})
		}
	}
	return out
}

// TestTimelineGolden pins every probe track byte for byte, and checks
// that arming the audit layer alongside the probes leaves each track
// unchanged and the run clean.
func TestTimelineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three quick cells twice")
	}
	const window = 1000
	got := goldenTimeline{SimRevision: version.SimRevision, Window: window, Tracks: timelineTracks(t, window, false)}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenTimelinePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTimelinePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d tracks)", goldenTimelinePath, len(got.Tracks))
	} else {
		data, err := os.ReadFile(goldenTimelinePath)
		if err != nil {
			t.Fatalf("%v (generate it with: go test -run TestTimelineGolden -update .)", err)
		}
		var want goldenTimeline
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if want.SimRevision != got.SimRevision {
			t.Fatalf("golden timeline is for SimRevision %s, simulator is %s: regenerate with -update",
				want.SimRevision, got.SimRevision)
		}
		compareTracks(t, "probes", want.Tracks, got.Tracks)
	}

	compareTracks(t, "probes+audit", got.Tracks, timelineTracks(t, window, true))
}

func compareTracks(t *testing.T, what string, want, got []goldenTrack) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d tracks, want %d", what, len(got), len(want))
	}
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			t.Errorf("%s: track %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}
