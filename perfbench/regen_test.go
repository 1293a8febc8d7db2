package main

import "testing"

func TestParseJournalTornLastLine(t *testing.T) {
	data := []byte(`{"job":"table1","hash":"a1","status":"done","attempts":1}
{"job":"scalability/8","hash":"b2","status":"done","attempts":1,"elapsed_ms":177}
{"job":"headline","hash":"c3","status":"done","attempts":1,"elapsed_ms":51`)
	recs, torn := parseJournal(data)
	if torn != 1 {
		t.Errorf("torn = %d, want 1", torn)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].ElapsedMS != 0 || recs[1].ElapsedMS != 177 {
		t.Errorf("elapsed_ms = %d, %d; want 0, 177", recs[0].ElapsedMS, recs[1].ElapsedMS)
	}
	r := regenRun{jobs: recs, wall: 0.5}
	js := r.jobSeconds()
	if js["scalability"] != 0.177 || js["rest"] != 0 || js["headline"] != 0 {
		t.Errorf("job seconds %v", js)
	}
	if got, want := r.parallelEff(), 0.177; got != want {
		t.Errorf("parallel efficiency %v, want %v", got, want)
	}
}

func TestRegenGroup(t *testing.T) {
	for job, want := range map[string]string{
		"headline":       "headline",
		"scalability/16": "scalability",
		"fig13b":         "fig13b",
		"fig9":           "rest",
		"table1":         "rest",
	} {
		if got := regenGroup(job); got != want {
			t.Errorf("regenGroup(%q) = %q, want %q", job, got, want)
		}
	}
}
