package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mobweb/internal/document"
	"mobweb/internal/erasure"
)

// alphaWeight is one component of a channel-quality mixture.
type alphaWeight struct {
	Alpha  float64 `json:"alpha"`
	Weight float64 `json:"weight"`
}

// workloadSpec fixes everything a workload varies. The seed given on the
// command line draws the corpus text, the fetch schedule, the per-fetch
// channel draws and the writer's events; the spec alone sets their shape.
type workloadSpec struct {
	Name     string  `json:"name"`
	Docs     int     `json:"docs"`
	DocBytes int     `json:"doc_bytes"`
	ZipfS    float64 `json:"zipf_s"`
	// Queries is the number of distinct keyword queries each document is
	// fetched under, drawn uniformly per fetch; with queries, units are
	// ordered by query-specific content (QIC) and every (document, query)
	// pair is its own plan. Zero fetches without a query, by IC.
	Queries int `json:"queries_per_doc"`
	// AlphaMix is the per-fetch corruption probability mixture the
	// server's injector applies on that fetch's connection.
	AlphaMix []alphaWeight `json:"alpha_mix"`
	// FountainShare is the fraction of fetches that ask for the rateless
	// codec; the rest use the fixed-rate Vandermonde code. A quarter, not
	// a half, on weak-large: the two codecs' first-unit times form two
	// clusters (clear Vandermonde packets at 0.6-1 ms, peeled fountain
	// symbols at 1-3.5 ms), and a half-and-half median fell in the gap
	// between them, where it swung by a third between seeds.
	FountainShare float64 `json:"fountain_share"`
	// AdaptGamma sizes each Vandermonde round's redundancy from the
	// client's α estimate.
	AdaptGamma bool `json:"adapt_gamma"`
	MaxRounds  int  `json:"max_rounds"`
	// OpenRate is the open-loop Poisson arrival rate in fetches/s, about
	// a quarter of the closed-loop capacity measured on a 2-vCPU host: at
	// half, a few seconds of a slowed host queue up and the median latency
	// of one run swings by up to 2x. churn-longtail runs at about a sixth,
	// because its writer and garbage collector also load the host; at a
	// quarter its latency medians spread by a fifth between seeds on a
	// busy host.
	OpenRate float64 `json:"open_rate_per_s"`
	// WriteRate is the churn writer's re-index rate in documents/s
	// (zero: no writer).
	WriteRate float64 `json:"write_rate_per_s"`
	// Windows is how many open-loop/closed-loop cycles a run measures.
	// More, shorter windows let the median pass over more of the host's
	// slow stretches.
	Windows int `json:"windows"`
	// Warmup is the number of closed-loop fetches run during set-up so
	// the plan and frame caches are filled before anything is timed.
	Warmup int `json:"warmup_fetches"`
	// Setups is how many times a run builds the whole set-up; setup_s is
	// their median and the last one is measured.
	Setups int `json:"setups"`
	// TracedFill is the number of closed-loop fetches the traced run makes
	// before its phases, so that on churn-longtail the frame cache is at
	// its budget and evicting while the layers are read. The set-up's
	// warm-up leaves it about half full.
	TracedFill int `json:"traced_fill_fetches"`
	// ReplayFetches is the seeded sample the traced run re-drives
	// through the stage replay.
	ReplayFetches int `json:"replay_fetches"`
}

var workloads = map[string]workloadSpec{
	"hot-small": {
		Name: "hot-small", Docs: 20, DocBytes: 2 << 10, ZipfS: 1.2,
		AlphaMix:  []alphaWeight{{0, 0.8}, {0.05, 0.15}, {0.2, 0.05}},
		MaxRounds: 20, OpenRate: 1400, Windows: 15, Warmup: 200, Setups: 21, ReplayFetches: 2000,
	},
	"weak-large": {
		Name: "weak-large", Docs: 40, DocBytes: 16 << 10, ZipfS: 1.2,
		AlphaMix:      []alphaWeight{{0.1, 1}, {0.2, 1}, {0.3, 1}},
		FountainShare: 0.25, AdaptGamma: true,
		MaxRounds: 20, OpenRate: 100, Windows: 12, Warmup: 80, Setups: 9, ReplayFetches: 300,
	},
	"churn-longtail": {
		Name: "churn-longtail", Docs: 600, DocBytes: 12 << 10, ZipfS: 1.01, Queries: 8,
		AlphaMix:  []alphaWeight{{0, 0.8}, {0.05, 0.15}, {0.2, 0.05}},
		MaxRounds: 20, OpenRate: 75, WriteRate: 20, Windows: 20, Warmup: 1000, Setups: 3, TracedFill: 4000, ReplayFetches: 600,
	},
}

// workloadNames lists the workloads in a fixed order.
var workloadNames = []string{"hot-small", "weak-large", "churn-longtail"}

// fetchSpec is one scheduled fetch: which document, when it is due
// (open loop only), and the channel and codec its user has.
type fetchSpec struct {
	Doc      int
	Query    int // index into the document's queries; -1 for none
	Due      time.Duration
	Alpha    float64
	ChanSeed int64
	Codec    erasure.CodecID
}

// writeEvent is one churn re-index: at At, document Doc gets version
// Version (version 0 is the set-up corpus).
type writeEvent struct {
	At      time.Duration
	Doc     int
	Version int
}

// stream draws fetches from one seeded source: the popularity, channel
// and codec draws share its generator, so the sequence is a pure function
// of (spec, seed, stream id).
type stream struct {
	spec workloadSpec
	rng  *rand.Rand
	zipf *rand.Zipf
}

// Stream ids keep the open-loop schedule, the closed-loop sequence, the
// set-up warm-up and the churn writer on independent sources.
const (
	streamOpen int64 = iota + 1
	streamClosed
	streamWarmup
	streamWriter
	streamCorpus
	streamReplay
	streamQuery
	streamFill
)

func newStream(spec workloadSpec, seed, id int64) *stream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + id))
	return &stream{spec: spec, rng: rng, zipf: rand.NewZipf(rng, spec.ZipfS, 1, uint64(spec.Docs-1))}
}

// next draws one fetch (Due left zero).
func (s *stream) next() fetchSpec {
	f := fetchSpec{Doc: int(s.zipf.Uint64()), Query: -1}
	if s.spec.Queries > 0 {
		f.Query = s.rng.Intn(s.spec.Queries)
	}
	f.Alpha = drawAlpha(s.rng, s.spec.AlphaMix)
	f.ChanSeed = s.rng.Int63()
	if s.rng.Float64() < s.spec.FountainShare {
		f.Codec = erasure.CodecFountain
	}
	return f
}

func drawAlpha(rng *rand.Rand, mix []alphaWeight) float64 {
	total := 0.0
	for _, m := range mix {
		total += m.Weight
	}
	u := rng.Float64() * total
	for _, m := range mix {
		u -= m.Weight
		if u <= 0 {
			return m.Alpha
		}
	}
	return mix[len(mix)-1].Alpha
}

// openSchedule draws the open-loop fetches due within d: Poisson arrivals
// at the spec's rate.
func openSchedule(spec workloadSpec, seed int64, d time.Duration) []fetchSpec {
	s := newStream(spec, seed, streamOpen)
	var out []fetchSpec
	t := 0.0
	for {
		t += s.rng.ExpFloat64() / spec.OpenRate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		f := s.next()
		f.Due = due
		out = append(out, f)
	}
}

// writerSchedule draws the churn writer's re-index events within d, at a
// fixed period, each on a Zipf-chosen document.
func writerSchedule(spec workloadSpec, seed int64, d time.Duration) []writeEvent {
	if spec.WriteRate <= 0 {
		return nil
	}
	s := newStream(spec, seed, streamWriter)
	period := time.Duration(float64(time.Second) / spec.WriteRate)
	version := make(map[int]int)
	var out []writeEvent
	for at := period; at < d; at += period {
		doc := int(s.zipf.Uint64())
		version[doc]++
		out = append(out, writeEvent{At: at, Doc: doc, Version: version[doc]})
	}
	return out
}

// docName names document i of the corpus.
func docName(i int) string { return fmt.Sprintf("doc-%05d.xml", i) }

// queryText is keyword query q of a document: two words drawn from the
// 60 most frequent of the vocabulary, so both usually occur in the text.
func queryText(seed int64, doc, q int) string {
	if q < 0 {
		return ""
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + streamQuery + int64(doc)*7919 + int64(q)*104_729))
	return vocabulary[rng.Intn(60)] + " " + vocabulary[rng.Intn(60)]
}

// docText is one generated document version: its paragraphs, grouped
// four to a section, and the body the transmitter must deliver.
type docText struct {
	paras []string
	body  []byte
}

// vocabulary is a fixed list of pseudo-words; documents draw from it with
// a skewed frequency so keyword statistics look like prose.
var vocabulary = func() []string {
	syll := []string{"ka", "lo", "mi", "re", "tu", "sa", "no", "vi", "de", "po", "ra", "ze", "bu", "ni", "fe", "go"}
	rng := rand.New(rand.NewSource(42))
	words := make([]string, 500)
	for i := range words {
		n := 5 + rng.Intn(5)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteString(syll[rng.Intn(len(syll))])
		}
		words[i] = b.String()
	}
	return words
}()

// genDoc draws the text of one document version. The body is exactly
// size bytes: paragraphs of 280-360 bytes, each followed by a newline,
// the last one cut to fit. Paragraphs of about one to one and a half
// packets keep the first unit at two packets in every seed, so the
// first-unit time does not jump between seeds with paragraph length.
func genDoc(seed int64, doc, version, size int) docText {
	rng := rand.New(rand.NewSource(seed*1_000_003 + streamCorpus + int64(doc)*7919 + int64(version)*104_729))
	zipf := rand.NewZipf(rng, 1.5, 1, uint64(len(vocabulary)-1))
	var paras []string
	remaining := size
	for remaining > 0 {
		n := 280 + rng.Intn(81)
		if remaining-(n+1) < 100 {
			n = remaining - 1
		}
		var b strings.Builder
		for b.Len() < n {
			b.WriteString(vocabulary[zipf.Uint64()])
			b.WriteByte(' ')
		}
		p := []byte(b.String()[:n])
		if p[n-1] == ' ' {
			p[n-1] = 'x'
		}
		paras = append(paras, string(p))
		remaining -= n + 1
	}
	body := make([]byte, 0, size)
	for _, p := range paras {
		body = append(body, p...)
		body = append(body, '\n')
	}
	return docText{paras: paras, body: body}
}

// build assembles the document tree the search engine indexes.
func (d docText) build(name string) (*document.Document, error) {
	b := document.NewBuilder()
	for i, p := range d.paras {
		if i%4 == 0 {
			b.Open(document.LODSection, fmt.Sprint(i/4+1), fmt.Sprintf("Section %d", i/4+1))
		}
		b.Paragraph(p)
	}
	return b.Build(name, name)
}
