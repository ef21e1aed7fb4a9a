package main

import (
	"fmt"

	"anufs/internal/sharedisk"
)

// verifyDurable recovers every journal directory of the stopped stack the
// way a restarted daemon would, and checks that each acknowledged durable
// write is there with its last acknowledged value: at the file set's
// final owner, and, for the file sets d0 owns, on the standby too (d0
// acknowledges a write only once the standby has it). It returns one line
// per problem; none means no loss.
func (ss *session) verifyDurable(w workload) []string {
	if !w.durable {
		return nil
	}
	var problems []string
	recovered := make([]map[string]sharedisk.Image, len(ss.s.daemons))
	for _, d := range ss.s.daemons {
		images, err := recoverImages(d.dir)
		if err != nil {
			return []string{fmt.Sprintf("recover d%d journal: %v", d.id, err)}
		}
		recovered[d.id] = images
	}
	standby, err := recoverImages(ss.s.standbyDir)
	if err != nil {
		return []string{fmt.Sprintf("recover standby journal: %v", err)}
	}
	final := ss.s.auth.Map()
	for fi, fs := range ss.r.p.fileSets {
		owner := final.Assign[fs]
		problems = append(problems, ss.checkImage(fmt.Sprintf("d%d", owner), recovered[owner], fi)...)
		if owner == 0 {
			problems = append(problems, ss.checkImage("standby", standby, fi)...)
		}
	}
	return problems
}

// checkImage compares one recovered file set against the expected state.
func (ss *session) checkImage(where string, images map[string]sharedisk.Image, fi int) []string {
	fs := ss.r.p.fileSets[fi]
	im, ok := images[fs]
	if !ok {
		return []string{fmt.Sprintf("%s: file set %s lost after recovery", where, fs)}
	}
	lost := 0
	first := ""
	for rec := 0; rec < recordsPerSet; rec++ {
		k := fi*recordsPerSet + rec
		got, ok := im.Records[recordPath(rec)]
		want, maybe := ss.r.exp.acked[k], ss.r.exp.maybe[k]
		if ok && (got.Size == want || (maybe != 0 && got.Size == maybe)) {
			continue
		}
		lost++
		if first == "" {
			first = fmt.Sprintf("%s%s holds version %d (present %v), last acknowledged %d", fs, recordPath(rec), got.Size, ok, want)
		}
	}
	if lost == 0 {
		return nil
	}
	return []string{fmt.Sprintf("%s: %d acknowledged writes lost after recovery, e.g. %s", where, lost, first)}
}
