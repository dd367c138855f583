package viz

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Atlas is the per-regime robustness atlas of a 2D session: for every
// (algorithm, regime) pair, a map of the worst sub-optimality observed at
// each ESS grid cell across the regime's scenarios, overlaid with the
// guardrail interventions that occurred there. It is pure render data —
// assembled by the session sweep, serialized as JSON or drawn as SVG.
type Atlas struct {
	// Query names the session's benchmark query.
	Query string `json:"query"`
	// NX and NY are the ESS grid resolutions (dimension 0 and 1).
	NX int `json:"nx"`
	NY int `json:"ny"`
	// SelX and SelY are the grid's selectivity points per dimension.
	SelX []float64 `json:"sel_x"`
	SelY []float64 `json:"sel_y"`
	// Regimes lists the regime labels in sweep order; Maps holds one entry
	// per (algorithm, regime) pair, regime-major within each algorithm.
	Regimes []string   `json:"regimes"`
	Maps    []AtlasMap `json:"maps"`
}

// AtlasMap is one algorithm's robustness map within one error regime.
type AtlasMap struct {
	Algorithm string `json:"algorithm"`
	Regime    string `json:"regime"`
	// MSO and ASO aggregate the regime's (scenario, location) evaluations.
	MSO float64 `json:"mso"`
	ASO float64 `json:"aso"`
	// Guard is the guardrail-intervention census ("budget_abort",
	// "ess_escape", "crashed"); Degraded counts Native-plan fallbacks.
	Guard    map[string]int `json:"guard,omitempty"`
	Degraded int            `json:"degraded,omitempty"`
	// SubOpt[ci] is the worst sub-optimality at flat grid cell ci
	// (ci = x*NY + y); 0 marks an unswept cell. Verdict[ci] is the most
	// severe guard verdict observed there ("" when every run was clean).
	SubOpt  []float64 `json:"subopt"`
	Verdict []string  `json:"verdict"`
}

// JSON serializes the atlas, indented, with a trailing newline.
func (a *Atlas) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// SVG geometry: fixed-size cells on a panel lattice, regimes as columns and
// algorithms as rows, so the guard overlays line up for visual comparison
// across strategies.
const (
	atlasCell    = 12 // cell edge, px
	atlasPad     = 56 // outer margin (axis + row labels)
	atlasGapX    = 28 // horizontal gap between panels
	atlasGapY    = 44 // vertical gap between panels (panel titles live here)
	atlasLegendH = 34
)

// verdictColor maps a guard verdict to its overlay marker color.
func verdictColor(v string) string {
	switch v {
	case "ess_escape":
		return "#7b2d8b" // purple: the guarantee's last resort
	case "budget_abort":
		return "#d97706" // amber: the engine cut an overrun off at its budget
	case "crashed":
		return "#2563eb" // blue: recoverable by design
	case "degraded":
		return "#475569" // slate: fell back to the native plan
	}
	return ""
}

// heat maps a sub-optimality to a white→red fill on a log2 ramp shared by
// the whole atlas (so panels are directly comparable): white at 1 (optimal),
// saturated red at the atlas-wide maximum. Unswept cells (0) render gray.
func heat(subOpt, max float64) string {
	if subOpt <= 0 {
		return "#e2e8f0"
	}
	t := 0.0
	if max > 1 && subOpt > 1 {
		t = math.Log2(subOpt) / math.Log2(max)
	}
	if t > 1 {
		t = 1
	}
	// Interpolate white (255,255,255) → red (178,24,43).
	r := 255 - int(t*(255-178))
	g := 255 - int(t*(255-24))
	b := 255 - int(t*(255-43))
	return fmt.Sprintf("#%02x%02x%02x", r, g, b)
}

// SVG renders the atlas as a standalone SVG document: a lattice of heatmap
// panels (regimes across, algorithms down; the Y selectivity axis points
// up), guard verdict markers overlaid per cell, and a shared legend — the
// Graefe-style robustness map extended with the runtime-guard dimension.
func (a *Atlas) SVG() string {
	cols := len(a.Regimes)
	if cols == 0 {
		cols = 1
	}
	rows := (len(a.Maps) + cols - 1) / cols
	if rows == 0 {
		rows = 1
	}
	panelW := a.NX * atlasCell
	panelH := a.NY * atlasCell
	width := atlasPad + cols*(panelW+atlasGapX)
	height := atlasPad + rows*(panelH+atlasGapY) + atlasLegendH

	maxSub := 1.0
	for _, m := range a.Maps {
		if m.MSO > maxSub {
			maxSub = m.MSO
		}
	}

	var out strings.Builder
	fmt.Fprintf(&out, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="monospace" font-size="11">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&out, `<title>robustness atlas: %s</title>`+"\n", escape(a.Query))
	fmt.Fprintf(&out, `<text x="%d" y="16" font-size="13">robustness atlas — %s (suboptimality heat, guard overlays)</text>`+"\n",
		atlasPad, escape(a.Query))

	for mi, m := range a.Maps {
		col, row := mi%cols, mi/cols
		x0 := atlasPad + col*(panelW+atlasGapX)
		y0 := atlasPad + row*(panelH+atlasGapY)
		fmt.Fprintf(&out, `<text x="%d" y="%d">%s / %s  MSO=%.3g ASO=%.3g</text>`+"\n",
			x0, y0-6, escape(m.Algorithm), escape(m.Regime), m.MSO, m.ASO)
		fmt.Fprintf(&out, `<g shape-rendering="crispEdges">`+"\n")
		for x := 0; x < a.NX; x++ {
			for y := 0; y < a.NY; y++ {
				ci := x*a.NY + y
				var sub float64
				if ci < len(m.SubOpt) {
					sub = m.SubOpt[ci]
				}
				// Y axis points up: grid y=0 is the bottom row.
				px := x0 + x*atlasCell
				py := y0 + (a.NY-1-y)*atlasCell
				fmt.Fprintf(&out, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>`+"\n",
					px, py, atlasCell, atlasCell, heat(sub, maxSub))
			}
		}
		out.WriteString("</g>\n")
		// Guard overlay markers, drawn above the heat layer.
		for x := 0; x < a.NX; x++ {
			for y := 0; y < a.NY; y++ {
				ci := x*a.NY + y
				if ci >= len(m.Verdict) || m.Verdict[ci] == "" {
					continue
				}
				color := verdictColor(m.Verdict[ci])
				cx := x0 + x*atlasCell + atlasCell/2
				cy := y0 + (a.NY-1-y)*atlasCell + atlasCell/2
				switch m.Verdict[ci] {
				case "ess_escape":
					// Diagonal cross: the run left the enumerated space.
					fmt.Fprintf(&out, `<path d="M%d %dL%d %dM%d %dL%d %d" stroke="%s" stroke-width="1.5"/>`+"\n",
						cx-3, cy-3, cx+3, cy+3, cx-3, cy+3, cx+3, cy-3, color)
				case "budget_abort":
					fmt.Fprintf(&out, `<circle cx="%d" cy="%d" r="3" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n",
						cx, cy, color)
				case "crashed":
					fmt.Fprintf(&out, `<rect x="%d" y="%d" width="6" height="6" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n",
						cx-3, cy-3, color)
				default: // degraded
					fmt.Fprintf(&out, `<circle cx="%d" cy="%d" r="1.5" fill="%s"/>`+"\n", cx, cy, color)
				}
			}
		}
		fmt.Fprintf(&out, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#64748b"/>`+"\n",
			x0, y0, panelW, panelH)
	}

	// Legend: verdict markers plus the heat ramp endpoints.
	ly := height - atlasLegendH + 14
	fmt.Fprintf(&out, `<text x="%d" y="%d">guards:</text>`+"\n", atlasPad, ly)
	lx := atlasPad + 56
	for _, v := range []string{"ess_escape", "budget_abort", "crashed", "degraded"} {
		fmt.Fprintf(&out, `<rect x="%d" y="%d" width="8" height="8" fill="%s"/>`+"\n", lx, ly-8, verdictColor(v))
		fmt.Fprintf(&out, `<text x="%d" y="%d">%s</text>`+"\n", lx+12, ly, v)
		lx += 12*len(v) + 40
	}
	fmt.Fprintf(&out, `<text x="%d" y="%d">heat: white=optimal, red=%.3gx suboptimal, gray=unswept</text>`+"\n",
		atlasPad, ly+16, maxSub)
	out.WriteString("</svg>\n")
	return out.String()
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
