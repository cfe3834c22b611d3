package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trustmap/wire"
)

func writeNet(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "net.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const indusJSON = `{
  "trust": [
    {"truster": "Alice", "trusted": "Bob", "priority": 100},
    {"truster": "Alice", "trusted": "Charlie", "priority": 50},
    {"truster": "Bob", "trusted": "Alice", "priority": 80}
  ],
  "beliefs": {"Bob": "fish", "Charlie": "knot"}
}`

func TestRunBasic(t *testing.T) {
	path := writeNet(t, indusJSON)
	var out strings.Builder
	if err := run(&out, path, false, false, ""); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Alice") || !strings.Contains(s, "fish") {
		t.Errorf("output missing expected content:\n%s", s)
	}
}

func TestRunLineage(t *testing.T) {
	path := writeNet(t, indusJSON)
	var out strings.Builder
	if err := run(&out, path, false, false, "Alice=fish"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "lineage of Alice=fish: Bob -> Alice") {
		t.Errorf("lineage output wrong:\n%s", out.String())
	}
	out.Reset()
	if err := run(&out, path, false, false, "Alice=cow"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "not a possible value") {
		t.Errorf("impossible lineage not reported:\n%s", out.String())
	}
}

func TestRunPairs(t *testing.T) {
	path := writeNet(t, `{
	  "trust": [
	    {"truster": "x1", "trusted": "x2", "priority": 100},
	    {"truster": "x1", "trusted": "x3", "priority": 50},
	    {"truster": "x2", "trusted": "x1", "priority": 80},
	    {"truster": "x2", "trusted": "x4", "priority": 40}
	  ],
	  "beliefs": {"x3": "v", "x4": "w"}
	}`)
	var out strings.Builder
	if err := run(&out, path, false, true, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "x1 == x2") {
		t.Errorf("agreeing pair missing:\n%s", out.String())
	}
}

func TestRunSkeptic(t *testing.T) {
	path := writeNet(t, `{
	  "trust": [
	    {"truster": "x3", "trusted": "x2", "priority": 2},
	    {"truster": "x3", "trusted": "x1", "priority": 1}
	  ],
	  "beliefs": {"x2": "a"},
	  "constraints": {"x1": ["b"]}
	}`)
	var out strings.Builder
	if err := run(&out, path, true, false, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "a") {
		t.Errorf("skeptic output missing value:\n%s", out.String())
	}
}

func TestRunBulkPar(t *testing.T) {
	netPath := writeNet(t, indusJSON)
	objPath := filepath.Join(t.TempDir(), "objects.json")
	objects := `{
	  "glyph1": {"Bob": "cow",  "Charlie": "jar"},
	  "glyph2": {"Bob": "fish", "Charlie": "fish"}
	}`
	if err := os.WriteFile(objPath, []byte(objects), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4} {
		var out strings.Builder
		if err := runBulkPar(&out, netPath, objPath, workers, ""); err != nil {
			t.Fatal(err)
		}
		s := out.String()
		// Bob outranks Charlie for Alice, so Alice follows Bob per object.
		if !strings.Contains(s, "glyph1           Alice            cow") {
			t.Errorf("workers=%d: missing glyph1 row for Alice:\n%s", workers, s)
		}
		if !strings.Contains(s, "glyph2           Alice            fish") {
			t.Errorf("workers=%d: missing glyph2 row for Alice:\n%s", workers, s)
		}
		if !strings.Contains(s, "dedup: 2 objects -> 2 distinct signatures") {
			t.Errorf("workers=%d: missing dedup summary line:\n%s", workers, s)
		}
	}
	// Restricting -users filters rows; whitespace around names is fine.
	var out strings.Builder
	if err := runBulkPar(&out, netPath, objPath, 2, "Bob, Charlie"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "Alice") {
		t.Errorf("-users filter leaked other users:\n%s", out.String())
	}
	// Unknown users in -users must error instead of printing empty rows.
	if err := runBulkPar(&out, netPath, objPath, 1, "Zed"); err == nil {
		t.Error("unknown -users name must error")
	}
	if err := runBulkPar(&out, netPath, "/nonexistent.json", 1, ""); err == nil {
		t.Error("missing objects file must error")
	}
	// A user the objects name but the network file does not becomes a
	// root of the store and stays reportable.
	ghostPath := filepath.Join(t.TempDir(), "ghost.json")
	ghost := `{"glyph3": {"Bob": "cow", "Charlie": "jar", "Dave": "totem"}}`
	if err := os.WriteFile(ghostPath, []byte(ghost), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runBulkPar(&out, netPath, ghostPath, 1, "Dave"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "glyph3           Dave             totem") {
		t.Errorf("missing row for object-only user Dave:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "/nonexistent.json", false, false, ""); err == nil {
		t.Error("missing file must error")
	}
	bad := writeNet(t, "{not json")
	if err := run(&out, bad, false, false, ""); err == nil {
		t.Error("bad JSON must error")
	}
	path := writeNet(t, indusJSON)
	if err := run(&out, path, false, false, "malformed"); err == nil {
		t.Error("malformed -lineage must error")
	}
}

func TestRunSession(t *testing.T) {
	netPath := writeNet(t, indusJSON)
	dir := t.TempDir()
	objPath := filepath.Join(dir, "objects.json")
	objects := `{
	  "glyph1": {"Bob": "cow",  "Charlie": "jar"},
	  "glyph2": {"Bob": "fish", "Charlie": "fish"}
	}`
	if err := os.WriteFile(objPath, []byte(objects), 0o644); err != nil {
		t.Fatal(err)
	}
	mutPath := filepath.Join(dir, "muts.json")
	// Dropping Alice -> Bob leaves Charlie as Alice's only mapping.
	muts := `[
	  {"op": "remove-trust", "truster": "Alice", "trusted": "Bob"},
	  {"op": "update-trust", "truster": "Alice", "trusted": "Charlie", "priority": 10}
	]`
	if err := os.WriteFile(mutPath, []byte(muts), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runSession(&out, netPath, objPath, mutPath, 2, "Alice"); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	before, after, found := strings.Cut(s, "== after 2 mutations ==")
	if !found {
		t.Fatalf("missing after-mutations section:\n%s", s)
	}
	if !strings.Contains(before, "glyph1           Alice            cow") {
		t.Errorf("before: Alice must follow Bob:\n%s", before)
	}
	if !strings.Contains(after, "glyph1           Alice            jar") {
		t.Errorf("after revocation: Alice must follow Charlie:\n%s", after)
	}
	if !strings.Contains(after, "store: epoch") || !strings.Contains(after, "1 compile(s)") {
		t.Errorf("missing store stats line:\n%s", after)
	}
	// Error paths: unknown op and failing mutations.
	badMut := filepath.Join(dir, "bad.json")
	os.WriteFile(badMut, []byte(`[{"op": "frobnicate"}]`), 0o644)
	if err := runSession(&out, netPath, objPath, badMut, 1, ""); err == nil {
		t.Error("unknown op must error")
	}
	missing := filepath.Join(dir, "missing.json")
	os.WriteFile(missing, []byte(`[{"op": "remove-trust", "truster": "Alice", "trusted": "Zed"}]`), 0o644)
	if err := runSession(&out, netPath, objPath, missing, 1, ""); err == nil {
		t.Error("removing an absent mapping must error")
	}
}

// TestRunRemoteFleet drives the remote subcommand against a two-endpoint
// fleet: the first endpoint is dead, so -retry failover must complete
// reads against the second; promote targets the first endpoint only.
func TestRunRemoteFleet(t *testing.T) {
	alive := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/objects":
			json.NewEncoder(w).Encode(wire.ObjectListResponse{Objects: []string{"o1"}})
		case "/v1/admin/promote":
			json.NewEncoder(w).Encode(wire.PromoteResponse{Role: "primary", WasReplica: true, LSN: 9})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(alive.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	var out strings.Builder
	if err := runRemote(&out, []string{"-addr", dead + "," + alive.URL, "-retry", "4", "objects"}); err != nil {
		t.Fatalf("remote objects with dead first endpoint: %v", err)
	}
	if !strings.Contains(out.String(), `"o1"`) {
		t.Fatalf("objects output missing key:\n%s", out.String())
	}

	out.Reset()
	if err := runRemote(&out, []string{"-addr", alive.URL, "promote"}); err != nil {
		t.Fatalf("remote promote: %v", err)
	}
	if !strings.Contains(out.String(), `"was_replica": true`) {
		t.Fatalf("promote output:\n%s", out.String())
	}

	// Without -retry there is no failover: the dead endpoint's transport
	// error surfaces.
	if err := runRemote(&out, []string{"-addr", dead, "objects"}); err == nil {
		t.Fatal("remote against a dead endpoint with no -retry must error")
	}
}
