package experiment

import (
	"fmt"
	"strings"

	"rica/internal/protocol"
)

// CSV renders one metric of the sweep as comma-separated values with a
// header row, suitable for regenerating the paper's plots in any plotting
// tool.
func (s SweepResult) CSV(m Metric) string {
	var b strings.Builder
	b.WriteString("speed_kmh")
	for _, p := range s.Order {
		fmt.Fprintf(&b, ",%s", p.String())
	}
	b.WriteByte('\n')
	for i, sp := range s.Speeds {
		fmt.Fprintf(&b, "%g", sp)
		for _, p := range s.Order {
			fmt.Fprintf(&b, ",%.3f", m.value(s.Cells[p][i].Mean))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the route-quality table (Figure 5) as comma-separated
// values.
func (q QualityResult) CSV() string {
	var b strings.Builder
	b.WriteString("protocol,link_throughput_kbps,csi_hops,geo_hops,max_hops\n")
	for _, p := range q.Order {
		m := q.Cells[p].Mean
		fmt.Fprintf(&b, "%s,%.3f,%.3f,%.3f,%d\n",
			p.String(), m.LinkThroughputK, m.CSIHops, m.GeoHops, m.MaxHops)
	}
	return b.String()
}

// CSV renders the throughput time series (Figure 6) as comma-separated
// values, one row per 4 s bucket.
func (s SeriesResult) CSV() string {
	var b strings.Builder
	b.WriteString("t_seconds")
	for _, p := range s.Order {
		fmt.Fprintf(&b, ",%s", p.String())
	}
	b.WriteByte('\n')
	buckets := 0
	for _, p := range s.Order {
		if n := len(s.Cells[p].Mean.ThroughputSeries); n > buckets {
			buckets = n
		}
	}
	for i := 0; i < buckets; i++ {
		fmt.Fprintf(&b, "%d", i*4)
		for _, p := range s.Order {
			series := s.Cells[p].Mean.ThroughputSeries
			v := 0.0
			if i < len(series) {
				v = series[i]
			}
			fmt.Fprintf(&b, ",%.3f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// chartHeight is the number of value rows an ASCII chart uses.
const chartHeight = 14

// protocolGlyphs mark each protocol's curve in ASCII charts.
var protocolGlyphs = map[protocol.Protocol]byte{
	protocol.RICA:      'R',
	protocol.BGCA:      'B',
	protocol.AODV:      'A',
	protocol.ABR:       'S', // stability
	protocol.LinkState: 'L',
}

// Chart renders the throughput series as a rough ASCII line chart — the
// visual shape of Figure 6 in a terminal. Later-plotted protocols
// overdraw earlier ones on collisions; the legend gives the order.
func (s SeriesResult) Chart() string {
	buckets := 0
	maxVal := 0.0
	for _, p := range s.Order {
		series := s.Cells[p].Mean.ThroughputSeries
		if len(series) > buckets {
			buckets = len(series)
		}
		for _, v := range series {
			if v > maxVal {
				maxVal = v
			}
		}
	}
	if buckets == 0 || maxVal <= 0 {
		return "(no data)\n"
	}
	// Drop the final, partial bucket if it is empty.
	if buckets > 1 {
		empty := true
		for _, p := range s.Order {
			series := s.Cells[p].Mean.ThroughputSeries
			if len(series) == buckets && series[buckets-1] > 0 {
				empty = false
			}
		}
		if empty {
			buckets--
		}
	}

	grid := make([][]byte, chartHeight)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", buckets))
	}
	for _, p := range s.Order {
		glyph := protocolGlyphs[p]
		for i, v := range s.Cells[p].Mean.ThroughputSeries {
			if i >= buckets {
				break
			}
			row := int(v / maxVal * float64(chartHeight-1))
			grid[chartHeight-1-row][i] = glyph
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Aggregate throughput (kbps), %.0f packets/s per flow, %.0f km/h — 4 s buckets\n",
		s.Load, s.SpeedKmh)
	for r, rowBytes := range grid {
		label := ""
		switch r {
		case 0:
			label = fmt.Sprintf("%7.0f", maxVal)
		case chartHeight - 1:
			label = fmt.Sprintf("%7.0f", 0.0)
		case chartHeight / 2:
			label = fmt.Sprintf("%7.0f", maxVal/2)
		default:
			label = strings.Repeat(" ", 7)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, rowBytes)
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 7), strings.Repeat("-", buckets))
	fmt.Fprintf(&b, "%s  0%*s%d s\n", strings.Repeat(" ", 7), buckets-len(fmt.Sprint((buckets-1)*4))-1, "", (buckets-1)*4)
	b.WriteString("legend: ")
	for _, p := range s.Order {
		fmt.Fprintf(&b, "%c=%s ", protocolGlyphs[p], p.String())
	}
	b.WriteByte('\n')
	return b.String()
}
