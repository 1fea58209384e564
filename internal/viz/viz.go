// Package viz renders a built REFER network as an SVG — the repository's
// analogue of the paper's Figure 1: the deployment field, the cell
// triangles, actuators, the embedded Kautz sensors with their KIDs, the
// overlay arcs, and the sleeping sensor population.
package viz

import (
	"fmt"
	"strings"

	"refer/internal/core"
	"refer/internal/world"
)

// palette for the cells (cycled when there are more cells than colors).
var cellColors = []string{"#e8f1fa", "#fae8e8", "#e8fae9", "#faf6e8", "#f1e8fa", "#e8fafa"}

// SVG renders the current state of a REFER system and its world. The
// drawing is scaled to the given pixel width (height follows the region's
// aspect ratio).
func SVG(w *world.World, sys *core.System, widthPx float64) string {
	region := w.Config().Region
	if widthPx <= 0 {
		widthPx = 800
	}
	scale := widthPx / region.Width()
	heightPx := region.Height() * scale
	// SVG's y axis grows downward; flip so the plot reads like the plane.
	tx := func(x float64) float64 { return (x - region.Min.X) * scale }
	ty := func(y float64) float64 { return heightPx - (y-region.Min.Y)*scale }

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`,
		widthPx, heightPx, widthPx, heightPx)
	sb.WriteString(`<rect width="100%" height="100%" fill="white"/>`)

	// Cell triangles.
	cells := sys.Cells()
	for i, c := range cells {
		color := cellColors[i%len(cellColors)]
		fmt.Fprintf(&sb,
			`<polygon points="%.1f,%.1f %.1f,%.1f %.1f,%.1f" fill="%s" stroke="#888" stroke-width="1"/>`,
			tx(c.Vertices[0].X), ty(c.Vertices[0].Y),
			tx(c.Vertices[1].X), ty(c.Vertices[1].Y),
			tx(c.Vertices[2].X), ty(c.Vertices[2].Y), color)
		fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" font-size="%.0f" fill="#666" text-anchor="middle">cell %d</text>`,
			tx(c.Centroid.X), ty(c.Centroid.Y), 12*scale/1.6, c.CID)
	}

	// Overlay arcs (drawn under the nodes), in the graph's KID order.
	g := sys.Graph()
	kids := g.Nodes()
	for _, c := range cells {
		for _, kid := range kids {
			from, ok := c.Node(kid)
			if !ok {
				continue
			}
			for _, succ := range g.Successors(kid) {
				to, ok := c.Node(succ)
				if !ok {
					continue
				}
				p, q := w.Position(from), w.Position(to)
				fmt.Fprintf(&sb,
					`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#bbb" stroke-width="0.7"/>`,
					tx(p.X), ty(p.Y), tx(q.X), ty(q.Y))
			}
		}
	}

	// Sleeping sensors (small gray dots), overlay sensors (blue, labeled),
	// actuators (red squares, labeled).
	for _, n := range w.Nodes() {
		p := w.Position(n.ID)
		x, y := tx(p.X), ty(p.Y)
		switch {
		case n.Kind == world.Actuator:
			fmt.Fprintf(&sb, `<rect x="%.1f" y="%.1f" width="10" height="10" fill="#c0392b"/>`, x-5, y-5)
			if addr, ok := sys.AddressOf(n.ID); ok {
				fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" font-size="10" fill="#c0392b">%s</text>`, x+7, y+4, addr.KID)
			}
		case isOverlay(sys, n.ID):
			fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="4.5" fill="#2471a3"/>`, x, y)
			if addr, ok := sys.AddressOf(n.ID); ok {
				fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" font-size="9" fill="#2471a3">%s</text>`, x+6, y+3, addr.KID)
			}
		default:
			var fill string
			if n.Alive() {
				fill = "#cccccc"
			} else {
				fill = "#f5b7b1"
			}
			fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="2" fill="%s"/>`, x, y, fill)
		}
	}
	sb.WriteString(`</svg>`)
	return sb.String()
}

func isOverlay(sys *core.System, id world.NodeID) bool {
	_, ok := sys.AddressOf(id)
	return ok
}
