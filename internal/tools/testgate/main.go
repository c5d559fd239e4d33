// Command testgate reads `go test -json` events on stdin and turns them
// into the plain test pass's verdict: it prints each package's summary
// line and the full output of every test that failed or skipped, and
// exits 1 when a test or package failed or when a test skipped itself:
// a test that skips on every run asserts nothing.
//
//	go test -json ./... > events.json; go run ./internal/tools/testgate < events.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// event is the subset of a test2json event testgate reads.
type event struct {
	Action  string
	Package string
	Test    string
	Output  string
}

func main() {
	failed, skipped, err := gate(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "testgate:", err)
		os.Exit(1)
	}
	if len(skipped) > 0 {
		fmt.Printf("testgate: %d test(s) skipped themselves:\n", len(skipped))
		for _, s := range skipped {
			fmt.Println("  " + s)
		}
	}
	if failed || len(skipped) > 0 {
		os.Exit(1)
	}
}

// gate replays events from r, writing package-level output and the
// output of failed or skipped tests to w. It reports whether anything
// failed and lists the skipped tests ("<package> <Test>"), sorted.
func gate(r io.Reader, w io.Writer) (failed bool, skipped []string, err error) {
	pending := make(map[string][]string) // "<package> <Test>" -> its output so far
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var ev event
		if json.Unmarshal(line, &ev) != nil || ev.Action == "" {
			fmt.Fprintf(w, "%s\n", line) // not an event: build errors and the like
			continue
		}
		id := ev.Package + " " + ev.Test
		switch {
		case ev.Test == "" && (ev.Action == "output" || ev.Action == "build-output"):
			if ev.Output != "PASS\n" { // -json implies -v; keep the plain pass's shape
				fmt.Fprint(w, ev.Output)
			}
		case ev.Action == "output":
			pending[id] = append(pending[id], ev.Output)
		case ev.Action == "fail" || ev.Action == "build-fail":
			failed = true
			fallthrough
		case ev.Action == "skip" && ev.Test != "":
			if ev.Action == "skip" {
				skipped = append(skipped, id)
			}
			fmt.Fprint(w, strings.Join(pending[id], ""))
			delete(pending, id)
		case ev.Action == "pass":
			delete(pending, id)
		}
	}
	sort.Strings(skipped)
	return failed, skipped, sc.Err()
}
