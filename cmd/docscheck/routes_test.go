package main

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/obs/obshttp"
	"github.com/quartz-emu/quartz/internal/runner"
)

// endpointDoc is the page whose endpoint table documents the introspection
// server's routes.
const endpointDoc = "../../doc/live-monitoring.md"

// endpointRowRE matches one endpoint-table row and captures its request
// target, e.g. "/ledger?since=N&limit=M" from "| `GET /ledger?since=N&limit=M` |".
var endpointRowRE = regexp.MustCompile("^\\|\\s*`GET (/\\S*)`\\s*\\|")

// routePath reduces a documented or indexed request target to its route:
// the query goes, and a trailing "..." (a documented subtree) is dropped.
func routePath(target string) string {
	path, _, _ := strings.Cut(target, "?")
	return strings.TrimSuffix(path, "...")
}

// TestDocEndpointsMatchRoutes fails when doc/live-monitoring.md's endpoint
// table and the introspection handler drift apart: every documented GET row
// must answer non-404 from a handler given every source, and every path the
// handler's index lists must have a row in the table.
func TestDocEndpointsMatchRoutes(t *testing.T) {
	f, err := os.Open(endpointDoc)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var targets []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m := endpointRowRE.FindStringSubmatch(sc.Text()); m != nil {
			targets = append(targets, m[1])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatalf("%s: no `GET /...` endpoint rows found", endpointDoc)
	}

	h := obshttp.Handler(obshttp.Options{
		Recorder:   obs.New(0),
		Status:     runner.NewStatusBoard(),
		VTProf:     func() ([]byte, error) { return []byte("profile"), nil },
		DebugPprof: true,
	})
	get := func(target string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		return w
	}

	documented := map[string]bool{}
	for _, target := range targets {
		path := routePath(target)
		documented[path] = true
		// Request the route without the documented query: its values are
		// placeholders (since=N), not numbers.
		if code := get(path).Code; code == http.StatusNotFound {
			t.Errorf("%s documents GET %s, but the handler answers 404", endpointDoc, target)
		}
	}

	index := get("/")
	if index.Code != http.StatusOK {
		t.Fatalf("GET /: %d", index.Code)
	}
	for _, line := range strings.Split(index.Body.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(fields[0], "/") {
			continue
		}
		if path := routePath(fields[0]); !documented[path] {
			t.Errorf("the handler's index lists %s, but %s's endpoint table has no row for it", path, endpointDoc)
		}
	}
}
