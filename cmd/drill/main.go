// Command drill runs the end-to-end daemon drills against real rqpd
// processes:
//
//	go run ./cmd/drill [name...]
//
// It makes one temp dir, builds rqpd into it once, and runs the named
// drills (all of them when none are named) in table order. Each drill boots
// its own fresh daemons and gets its own data subdir. It prints PASS or
// FAIL per drill and exits non-zero if any drill failed or a name is
// unknown. Drills take positional names only, no flags or env vars: each
// one's parameters are fixed in its file, and the replay drill also writes
// replay-report.json to the working directory. `make drills` runs them all;
// `make <name>-smoke` runs one.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/smoke"
)

// drills is the table of named drills; each lives in the file of its name.
var drills = []struct {
	name string
	run  func(bin, data string) error
}{
	{"metrics", metricsDrill},
	{"overload", overloadDrill},
	{"trace", traceDrill},
	{"fleet", fleetDrill},
	{"brownout", brownoutDrill},
	{"replay", replayDrill},
}

func main() {
	log.SetFlags(0)
	os.Exit(run(os.Args[1:]))
}

func run(names []string) int {
	var known []string
	for _, d := range drills {
		known = append(known, d.name)
	}
	for _, n := range names {
		if !slices.Contains(known, n) {
			log.Printf("drill: unknown drill %q (drills: %s)", n, strings.Join(known, ", "))
			return 2
		}
	}

	dir, err := os.MkdirTemp("", "drill")
	if err != nil {
		log.Print(err)
		return 1
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "rqpd")
	if err := smoke.BuildDaemon(bin); err != nil {
		log.Print(err)
		return 1
	}

	failed := 0
	for _, d := range drills {
		if len(names) > 0 && !slices.Contains(names, d.name) {
			continue
		}
		data := filepath.Join(dir, d.name)
		if err := os.Mkdir(data, 0o755); err != nil {
			log.Print(err)
			return 1
		}
		log.SetPrefix(d.name + ": ")
		err := d.run(bin, data)
		log.SetPrefix("")
		if err != nil {
			failed++
			fmt.Printf("FAIL %s: %v\n", d.name, err)
			continue
		}
		fmt.Printf("PASS %s\n", d.name)
	}
	if failed > 0 {
		return 1
	}
	return 0
}
