// Package experiments implements the paper's evaluation pipelines
// (§4): the institution rank-prediction task (Figure 3, Table 1,
// Figure 4), the label-prediction task (Figure 5), the dmax stability
// sweep (Table 2), and the runtime evaluation (Table 3). Each pipeline is
// deterministic given its configuration seed and returns result structs
// the cmd/ tools and benchmarks render as the paper's tables and series.
package experiments

import (
	"fmt"
	"sort"

	"hsgf/internal/datagen"
	"hsgf/internal/graph"
)

// ClassicFeatureNames documents the engineered feature columns produced
// by ClassicFeatures, mirroring the paper's classic + linguistic feature
// catalogue (§4.2.2): per-year relevance history (absolute and
// normalised), paper and author counts, the authorship productivity
// feature, last-author occurrences, and the aggregated linguistic
// statistics including top-20 title-word usage.
func ClassicFeatureNames(history int, topWords []string) []string {
	var names []string
	for h := 1; h <= history; h++ {
		names = append(names,
			fmt.Sprintf("relevance[t-%d]", h),
			fmt.Sprintf("relevance_norm[t-%d]", h))
	}
	names = append(names,
		"full_papers_past", "all_papers_past", "authorship_score",
		"full_paper_authors", "short_paper_authors", "last_author_count",
		"avg_institutions", "avg_keywords", "avg_title_words", "avg_title_chars")
	for _, w := range topWords {
		names = append(names, "topword:"+w)
	}
	return names
}

// topTitleWords returns the k most frequent title words across the
// conference's papers up to and excluding year (the paper computes the
// "overall top-20 title words from accepted papers" per conference).
func topTitleWords(pub *datagen.Publication, conf string, before int, k int) []string {
	counts := make(map[string]int)
	for _, p := range pub.Papers {
		if p.Conference != conf || p.Year >= before {
			continue
		}
		for _, w := range p.Title {
			counts[w]++
		}
	}
	words := make([]string, 0, len(counts))
	for w := range counts {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool {
		if counts[words[i]] != counts[words[j]] {
			return counts[words[i]] > counts[words[j]]
		}
		return words[i] < words[j]
	})
	if len(words) > k {
		words = words[:k]
	}
	return words
}

// ClassicFeatures computes the engineered feature matrix for every
// institution of pub at one conference and target year, using only
// information from years strictly before targetYear. Row order follows
// pub.Institutions. history controls how many past years of relevance
// enter as explicit columns.
func ClassicFeatures(pub *datagen.Publication, conf string, targetYear, history int) [][]float64 {
	instIndex := make(map[graph.NodeID]int, len(pub.Institutions))
	for i, v := range pub.Institutions {
		instIndex[v] = i
	}
	n := len(pub.Institutions)

	topWords := topTitleWords(pub, conf, targetYear, 20)
	wordIdx := make(map[string]int, len(topWords))
	for i, w := range topWords {
		wordIdx[w] = i
	}

	// Relevance history columns.
	type yearRel struct {
		rel   map[graph.NodeID]float64
		total float64
	}
	rels := make([]yearRel, history)
	for h := 1; h <= history; h++ {
		rel := pub.Relevance(conf, targetYear-h)
		// Sum in institution order, not map order: tree regressors
		// split on the last bit, so the total must be reproducible.
		var total float64
		for _, inst := range pub.Institutions {
			total += rel[inst]
		}
		rels[h-1] = yearRel{rel: rel, total: total}
	}

	base := 2 * history
	width := base + 10 + len(topWords)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, width)
	}
	for h, yr := range rels {
		for inst, v := range yr.rel {
			i := instIndex[inst]
			rows[i][2*h] = v
			if yr.total > 0 {
				rows[i][2*h+1] = v / yr.total
			}
		}
	}

	// Per-institution aggregates over papers before targetYear.
	type agg struct {
		fullPapers, allPapers     float64
		fullAuthors, shortAuthors map[graph.NodeID]bool
		lastAuthor                float64
		sumInstitutions           float64
		sumKeywords               float64
		sumTitleWords             float64
		sumTitleChars             float64
		papers                    float64
		topWordCounts             []float64
		authorYears               map[graph.NodeID]map[int]int // author -> year -> papers
	}
	aggs := make([]agg, n)
	for i := range aggs {
		aggs[i].fullAuthors = make(map[graph.NodeID]bool)
		aggs[i].shortAuthors = make(map[graph.NodeID]bool)
		aggs[i].topWordCounts = make([]float64, len(topWords))
		aggs[i].authorYears = make(map[graph.NodeID]map[int]int)
	}
	for _, p := range pub.Papers {
		if p.Conference != conf || p.Year >= targetYear {
			continue
		}
		// Institutions involved in the paper.
		instSet := make(map[graph.NodeID]bool)
		for _, a := range p.Authors {
			instSet[pub.AuthorInst[a]] = true
		}
		titleChars := 0
		for _, w := range p.Title {
			titleChars += len(w)
		}
		for inst := range instSet {
			i := instIndex[inst]
			a := &aggs[i]
			a.papers++
			a.allPapers++
			if p.Full {
				a.fullPapers++
			}
			a.sumInstitutions += float64(len(instSet))
			a.sumKeywords += float64(p.Keywords)
			a.sumTitleWords += float64(len(p.Title))
			a.sumTitleChars += float64(titleChars)
			for _, w := range p.Title {
				if j, ok := wordIdx[w]; ok {
					a.topWordCounts[j]++
				}
			}
		}
		for ai, author := range p.Authors {
			i := instIndex[pub.AuthorInst[author]]
			a := &aggs[i]
			if p.Full {
				a.fullAuthors[author] = true
			} else {
				a.shortAuthors[author] = true
			}
			if ai == len(p.Authors)-1 {
				a.lastAuthor++
			}
			ym := a.authorYears[author]
			if ym == nil {
				ym = make(map[int]int)
				a.authorYears[author] = ym
			}
			ym[p.Year]++
		}
	}
	for i := range aggs {
		a := &aggs[i]
		row := rows[i]
		row[base+0] = a.fullPapers
		row[base+1] = a.allPapers
		// Authorship: sum over authors, in ascending ID order, of their
		// average papers per active year at this conference.
		authors := make([]graph.NodeID, 0, len(a.authorYears))
		for author := range a.authorYears {
			authors = append(authors, author)
		}
		sort.Slice(authors, func(x, y int) bool { return authors[x] < authors[y] })
		var authorship float64
		for _, author := range authors {
			ym := a.authorYears[author]
			var papers int
			for _, c := range ym {
				papers += c
			}
			authorship += float64(papers) / float64(len(ym))
		}
		row[base+2] = authorship
		row[base+3] = float64(len(a.fullAuthors))
		row[base+4] = float64(len(a.shortAuthors))
		row[base+5] = a.lastAuthor
		if a.papers > 0 {
			row[base+6] = a.sumInstitutions / a.papers
			row[base+7] = a.sumKeywords / a.papers
			row[base+8] = a.sumTitleWords / a.papers
			row[base+9] = a.sumTitleChars / a.papers
			for j, c := range a.topWordCounts {
				row[base+10+j] = c / a.papers
			}
		}
	}
	return rows
}
