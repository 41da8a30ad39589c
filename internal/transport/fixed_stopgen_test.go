package transport

import (
	"encoding/json"
	"testing"

	"mobweb/internal/corpus"
)

// TestFixedRateStopgenKeepsConnection: the send engine treats a stopgen
// on a fixed-rate stream like one on a fountain stream — it stops that
// generation — instead of dropping the connection as a protocol
// violation. The stream still ends with its end marker, and the
// connection serves the next request.
func TestFixedRateStopgenKeepsConnection(t *testing.T) {
	ts := openTranscript(t, transcriptServer(t, ServerOptions{}), Request{Op: "fetch", Doc: corpus.DraftName})
	last := len(ts.layout.Shapes) - 1
	ts.send(Request{Op: "stopgen", Gen: last})
	frames := 0
	for {
		if _, _, end := ts.next(); end {
			break
		}
		frames++
	}
	if frames == 0 || frames > ts.layout.N() {
		t.Fatalf("fixed-rate stream sent %d frames of %d", frames, ts.layout.N())
	}
	ts.send(Request{Op: "search", Query: "mobile web browsing", Limit: 3})
	line, err := ts.r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("connection unusable after a fixed-rate stopgen: %v", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil || !resp.OK || len(resp.Hits) == 0 {
		t.Fatalf("search after a fixed-rate stopgen = %s (%v)", line, err)
	}
}
