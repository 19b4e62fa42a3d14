package netstore

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"testing"
)

// docTable extracts "| Name | `0xNN` |" rows from one markdown table
// in the protocol spec, keyed by the first column.
func docTable(t *testing.T, doc []byte, rowRe *regexp.Regexp) map[string]byte {
	t.Helper()
	rows := map[string]byte{}
	for _, m := range rowRe.FindAllStringSubmatch(string(doc), -1) {
		v, err := strconv.ParseUint(m[2], 0, 8)
		if err != nil {
			t.Fatalf("row %q: bad value %q", m[0], m[2])
		}
		rows[m[1]] = byte(v)
	}
	return rows
}

// TestProtocolDocMatchesCode pins docs/PROTOCOL.md to protocol.go and
// durable.go: every opcode, status, PUT kind, journal record kind and
// drain kind the code defines must appear in
// the spec's tables with the same value, and the spec must not list
// verbs the code lacks. Adding an op without documenting it — or
// renumbering one without updating the spec — fails here.
func TestProtocolDocMatchesCode(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatalf("protocol spec missing: %v", err)
	}

	check := func(section string, rowRe *regexp.Regexp, want map[string]byte) {
		got := docTable(t, doc, rowRe)
		for name, val := range want {
			dv, ok := got[name]
			if !ok {
				t.Errorf("%s: %s (0x%02x) not documented in PROTOCOL.md", section, name, val)
				continue
			}
			if dv != val {
				t.Errorf("%s: PROTOCOL.md says %s = 0x%02x, code says 0x%02x", section, name, dv, val)
			}
		}
		for name, dv := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: PROTOCOL.md documents %s = 0x%02x, which the code does not define", section, name, dv)
			}
		}
	}

	opcodes := map[string]byte{
		"GET":       opGet,
		"PUT":       opPut,
		"LEASE":     opLease,
		"RELEASE":   opRelease,
		"COLLECT":   opCollect,
		"CLEAR":     opClear,
		"EPOCH":     opEpoch,
		"GETVIEW":   opGetView,
		"NEIGHBORS": opNeighbors,
		"PROFILE":   opProfile,
		"STALENESS": opStaleness,
		"RESET":     opReset,
		"MUTATE":    opMutate,
		"DRAIN":     opDrain,
	}
	// One mutation log: the two journals' five verbs became MUTATE and
	// DRAIN, 17 verbs down to 14. A new verb must update this count.
	if len(opcodes) != 14 {
		t.Errorf("the wire has %d verbs, want 14", len(opcodes))
	}
	// Statuses share the "| NAME | `0xNN` |" row shape; list them here
	// so the single regexp's catch covers both tables.
	withStatuses := map[string]byte{
		"OK":    statusOK,
		"ERR":   statusErr,
		"PART":  statusPart,
		"END":   statusEnd,
		"STALE": statusStale,
		"MISS":  statusMiss,
		"RETRY": statusRetry,
	}
	for name, op := range opcodes {
		withStatuses[name] = op
	}
	check("opcodes", regexp.MustCompile(`(?m)^\| ([A-Z]+) +\| .(0x[0-9a-f]{2}). \|`), withStatuses)

	check("put kinds",
		regexp.MustCompile(`(?m)^\| (base|partial|deltaview|view|stale) +\| .(0x[0-9a-f]{2}). \|`),
		map[string]byte{
			"base":      putBase,
			"partial":   putPartial,
			"view":      putView,
			"deltaview": putDeltaView,
			"stale":     putStale,
		})

	check("journal records",
		regexp.MustCompile(`(?m)^\| (put|lease|clear|reset|mutate|drain) +\| .(0x[0-9a-f]{2}). \|`),
		map[string]byte{
			"put":    recPut,
			"lease":  recLease,
			"clear":  recClear,
			"reset":  recReset,
			"mutate": recMutate,
			"drain":  recDrain,
		})

	kinds := regexp.MustCompile("kind byte: `(0x[0-9a-f]{2})` updates, `(0x[0-9a-f]{2})` adds and deletes").
		FindStringSubmatch(string(doc))
	if kinds == nil || kinds[1] != fmt.Sprintf("0x%02x", DrainUpdates) || kinds[2] != fmt.Sprintf("0x%02x", DrainUsers) {
		t.Errorf("PROTOCOL.md's DRAIN row gives drain kinds %q, code says 0x%02x updates, 0x%02x adds and deletes",
			kinds, DrainUpdates, DrainUsers)
	}
}

// TestProtocolDocCoversFrameBound: the spec's framing section states
// the same payload bound the code enforces.
func TestProtocolDocCoversFrameBound(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	want := "2^28"
	if maxFrame != 1<<28 {
		t.Fatalf("maxFrame changed to %d — update docs/PROTOCOL.md and this test", maxFrame)
	}
	if !regexp.MustCompile(regexp.QuoteMeta(want)).Match(doc) {
		t.Errorf("PROTOCOL.md no longer states the %s-byte frame bound", want)
	}
}
