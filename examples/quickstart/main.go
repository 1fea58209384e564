// Quickstart: build a REFER network on the paper's default deployment,
// inject a few sensed events, and print what happened.
//
// -quick runs a smaller deployment; the CI smoke test uses it.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"refer"
)

func main() {
	quick := flag.Bool("quick", false, "smaller deployment for smoke testing")
	flag.Parse()
	if err := run(*quick, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(quick bool, out io.Writer) error {
	// The paper's Section IV deployment: 5 actuators whose triangulation
	// yields 4 Kautz cells, plus 200 sensors deployed around them.
	sensors := 200
	if quick {
		sensors = 150
	}
	w := refer.BuildWorld(refer.ScenarioParams{Seed: 42, Sensors: sensors})

	sys := refer.NewREFER(w)
	if err := sys.Build(); err != nil {
		return fmt.Errorf("building REFER: %w", err)
	}
	fmt.Fprintf(out, "built %d cells over %d nodes\n", len(sys.Cells()), w.Len())
	for _, c := range sys.Cells() {
		fmt.Fprintf(out, "  cell %d: centroid %v, corners %v\n", c.CID, c.Centroid, c.Corners)
	}

	// Inject one event from every cell's "021" overlay sensor and let the
	// Theorem 3.8 router carry it to a corner actuator. Events fire at
	// t = 2 s, once the embedding protocol's path-query airtime has
	// drained.
	delivered := 0
	if _, err := w.Sched.After(2*time.Second, func() {
		for _, c := range sys.Cells() {
			c := c
			src, _ := c.Node("021")
			createdAt := w.Now()
			sys.Inject(src, func(ok bool) {
				if ok {
					delivered++
					fmt.Fprintf(out, "  event from node %d (cell %d) reached an actuator after %v\n",
						src, c.CID, w.Now()-createdAt)
				}
			})
		}
	}); err != nil {
		return err
	}
	w.Sched.RunUntil(5 * time.Second)
	fmt.Fprintf(out, "%d/%d events delivered; stats: %+v\n", delivered, len(sys.Cells()), sys.Stats())
	if delivered == 0 {
		return fmt.Errorf("no event reached an actuator")
	}
	return nil
}
