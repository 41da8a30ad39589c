package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"
)

// The digests pin seed 1 of every workload: the first ten seconds of its
// open-loop schedule and churn writer (document, query, due time, α,
// channel seed, codec; re-indexed document and version), then the text
// of document 0 and of its first query. A change to a workload's inputs
// changes its digest; update the constant in the same change, so that
// the review sees it.
var goldenDigests = map[string][2]string{
	"hot-small": {
		"3f3f577a1b9bcccd70195462f88fc38f6c8d97889df6ae99825e955af1a1062a",
		"dd7843ff867ec1c317ee76bd98e2e069de3b70207a6731731d91dbf0e2e86bdf",
	},
	"weak-large": {
		"f60e6fd8ee15a24b8fff2d9b1208c42eab7e525a33e0c73675eb448cdd107d12",
		"de21aebe489ebe4df1ed40b08bbdfe3919bc86f45d432e6b2c7cb528ba6bc293",
	},
	"churn-longtail": {
		"8c86c8800050c8729f0924c64443ea6bec1e83be63cb2c16410fdea73e9d57cb",
		"0d18e1db1906f2255cc60833bbd008b6fa02890b7a267e20a51d85bf91d5f1b8",
	},
}

// scheduleDigest fingerprints the open-loop schedule and writer events,
// so a change to a workload's inputs shows as a changed digest.
func scheduleDigest(fetches []fetchSpec, writes []writeEvent) string {
	h := sha256.New()
	for _, f := range fetches {
		fmt.Fprintf(h, "f %d %d %d %g %d %s\n", f.Doc, f.Query, f.Due, f.Alpha, f.ChanSeed, f.Codec)
	}
	for _, w := range writes {
		fmt.Fprintf(h, "w %d %d %d\n", w.At, w.Doc, w.Version)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestScheduleGolden(t *testing.T) {
	for _, name := range workloadNames {
		spec := workloads[name]
		sched := scheduleDigest(openSchedule(spec, 1, 10*time.Second), writerSchedule(spec, 1, 10*time.Second))
		q := -1
		if spec.Queries > 0 {
			q = 0
		}
		h := sha256.New()
		h.Write(genDoc(1, 0, 0, spec.DocBytes).body)
		h.Write([]byte(queryText(1, 0, q)))
		text := hex.EncodeToString(h.Sum(nil))
		if want := goldenDigests[name]; sched != want[0] || text != want[1] {
			t.Errorf("%s seed 1: schedule digest %q, text digest %q; want %q, %q", name, sched, text, want[0], want[1])
		}
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	spec := workloads["churn-longtail"]
	a := openSchedule(spec, 7, 2*time.Second)
	b := openSchedule(spec, 7, 2*time.Second)
	c := openSchedule(spec, 8, 2*time.Second)
	if scheduleDigest(a, nil) != scheduleDigest(b, nil) {
		t.Fatal("the same seed drew two different schedules")
	}
	if scheduleDigest(a, nil) == scheduleDigest(c, nil) {
		t.Fatal("two seeds drew the same schedule")
	}
	for _, name := range workloadNames {
		spec := workloads[name]
		if got := len(genDoc(3, 5, 1, spec.DocBytes).body); got != spec.DocBytes {
			t.Errorf("%s: generated body is %d bytes, want %d", name, got, spec.DocBytes)
		}
	}
}

// TestOracleCatchesFlippedByte serves a corpus through a real server and
// flips one byte in the benchmark's own copy of a document: the fetch
// must then fail its check, while an untouched document passes.
func TestOracleCatchesFlippedByte(t *testing.T) {
	spec := workloads["hot-small"]
	spec.Docs, spec.Warmup = 2, 0
	e, _, err := setup(spec, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if o := e.fetch(fetchSpec{Doc: 1, Query: -1}, false); !o.ok {
		t.Fatalf("clean fetch failed: %s", o.why)
	}
	if o := e.fetch(fetchSpec{Doc: 0, Query: -1, Alpha: 0.2, ChanSeed: 3}, true); !o.ok {
		t.Fatalf("fetch over a corrupting channel failed: %s", o.why)
	}
	body := e.corpus.current(0)
	for _, pos := range []int{0, len(body) / 2, len(body) - 2} {
		body[pos] ^= 0x20
		o := e.fetch(fetchSpec{Doc: 0, Query: -1}, false)
		if o.ok || !strings.Contains(o.why, "body differs") {
			t.Errorf("byte %d flipped in the expected body: ok=%v, %q", pos, o.ok, o.why)
		}
		// A unit rendered from the server's (unflipped) text must now fail
		// the unit check on its own.
		served := []byte(string(body[pos:min(pos+40, len(body))]))
		served[0] ^= 0x20
		if e.corpus.unitMatches(0, pos, string(served), time.Now()) {
			t.Errorf("byte %d flipped: a unit with the original byte still matched", pos)
		}
		body[pos] ^= 0x20
	}
	if o := e.fetch(fetchSpec{Doc: 0, Query: -1}, false); !o.ok {
		t.Fatalf("fetch after restoring the body failed: %s", o.why)
	}
}

// TestChurnVersions checks which versions count as live for a fetch.
func TestChurnVersions(t *testing.T) {
	c := newCorpus(1)
	c.begin(0, []byte("v0"))
	c.commit(0)
	before := time.Now()
	time.Sleep(time.Millisecond)
	c.begin(0, []byte("v1"))
	c.commit(0)
	after := time.Now()
	if !c.bodyMatches(0, []byte("v0"), before.Add(-time.Millisecond), before) {
		t.Error("v0 was live before v1 was indexed")
	}
	if c.bodyMatches(0, []byte("v0"), after, after) {
		t.Error("v0 was retired before this fetch began")
	}
	if !c.bodyMatches(0, []byte("v1"), after, after) {
		t.Error("v1 is current")
	}
	if c.bodyMatches(0, []byte("v2"), before, after) {
		t.Error("v2 was never indexed")
	}
}
