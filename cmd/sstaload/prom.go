package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// exposition is one parsed /metrics scrape: series key -> value, where the
// key is the metric name followed by its labels sorted by name, e.g.
// `sstad_requests_total{endpoint="analyze"}`.
type exposition map[string]float64

// parseProm reads the Prometheus text exposition format: comment and blank
// lines are skipped, an optional trailing timestamp is ignored.
func parseProm(r io.Reader) (exposition, error) {
	out := exposition{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		key, rest, err := splitSeries(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics line %d: want value [timestamp], got %q", ln, rest)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		out[key] = v
	}
	return out, sc.Err()
}

// splitSeries parses `name{k="v",...}` at the start of line into its
// canonical key and returns the remainder.
func splitSeries(line string) (key, rest string, err error) {
	i := strings.IndexAny(line, "{ \t")
	if i <= 0 {
		return "", "", fmt.Errorf("no value in %q", line)
	}
	name := line[:i]
	if line[i] != '{' {
		return name, line[i:], nil
	}
	labels := map[string]string{}
	s := line[i+1:]
	for {
		s = strings.TrimLeft(s, " ,")
		if strings.HasPrefix(s, "}") {
			s = s[1:]
			break
		}
		eq := strings.Index(s, "=")
		if eq <= 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return "", "", fmt.Errorf("bad label in %q", line)
		}
		lname := strings.TrimSpace(s[:eq])
		var val strings.Builder
		j := eq + 2
		for ; j < len(s) && s[j] != '"'; j++ {
			if s[j] == '\\' && j+1 < len(s) {
				j++
				switch s[j] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[j])
				}
				continue
			}
			val.WriteByte(s[j])
		}
		if j >= len(s) {
			return "", "", fmt.Errorf("unterminated label value in %q", line)
		}
		labels[lname] = val.String()
		s = s[j+1:]
	}
	return seriesKey(name, labels), s, nil
}

// seriesKey renders the canonical key for a name and label set.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	names := make([]string, 0, len(labels))
	for k := range labels {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// get returns one series (0 when absent: every counter the benchmark reads
// starts at zero).
func (e exposition) get(key string) float64 { return e[key] }

// sum adds every series of the metric name, whatever its labels.
func (e exposition) sum(name string) float64 {
	var t float64
	for k, v := range e {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// delta returns after - before for every series in after.
func (e exposition) delta(before exposition) exposition {
	out := exposition{}
	for k, v := range e {
		out[k] = v - before[k]
	}
	return out
}

// add sums two expositions series by series (a cluster's processes).
func (e exposition) add(o exposition) exposition {
	out := exposition{}
	for k, v := range e {
		out[k] = v
	}
	for k, v := range o {
		out[k] += v
	}
	return out
}

// scrape fetches and parses one /metrics endpoint.
func scrape(ctx context.Context, hc *http.Client, url string) (exposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}
