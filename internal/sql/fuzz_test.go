package sql

import "testing"

// TPCHSeeds holds the 22 TPC-H texts. Package tpch imports this one, so
// the external test package fills it (seeds_test.go).
var TPCHSeeds []string

// fuzzSeeds is the corpus every fuzz target starts from: all 22 TPC-H
// texts plus a pile of malformed statements that exercise error paths.
func fuzzSeeds(f *testing.F) {
	if len(TPCHSeeds) != 22 {
		f.Fatalf("%d TPC-H seed texts, want 22", len(TPCHSeeds))
	}
	for _, text := range TPCHSeeds {
		f.Add(text)
	}
	for _, s := range []string{
		"",
		"select",
		"select * from t",
		"select a from",
		"select a as from t",
		"select a from t where",
		"select a from t where a in (",
		"select a from t where a in (1,",
		"select a from t where a between 1",
		"select a from t group by",
		"select a from t order by a limit",
		"select a from t limit -1",
		"with as (select a from t) select a from x",
		"with x as select a from t",
		"select 'unterminated from t",
		"select \x00 from t",
		"select a from t where a = date",
		"select a from t where a = date 'nope'",
		"select a from t where a > 1 + interval",
		"select a from t where a > interval '1' century",
		"select count(* from t",
		"select sum() as s from t",
		"select case when a then 1 end as c from t",
		"select substring(a) as s from t",
		"select a from (select b from t",
		"select a from t t2 t3",
		"select a from t left join",
		"select a from t left join u on",
		"select a.b.c from t",
		"select a from t where a like 5",
		"select a from t having",
		"select -- comment only",
		"select a /* unclosed from t",
		"select 1e999 as x from t",
		"select 9223372036854775808 as x from t",
		"((((((((((",
		"select a from t where not not not a = 1",
	} {
		f.Add(s)
	}
}

// FuzzLexer: the lexer must never panic and must consume any byte
// sequence, either producing tokens or a positioned error.
func FuzzLexer(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lex(src)
		if err != nil {
			return
		}
		// A successful lex always terminates with an EOF token carrying a
		// valid position.
		if len(toks) == 0 {
			t.Fatal("lex returned no tokens and no error")
		}
		last := toks[len(toks)-1]
		if last.kind != tEOF {
			t.Fatalf("token stream does not end in EOF: %v", last.kind)
		}
		for _, tok := range toks {
			if tok.pos.Line < 1 || tok.pos.Col < 1 {
				t.Fatalf("token %q has invalid position %v", tok.text, tok.pos)
			}
		}
	})
}

// FuzzParser: the parser must never panic, and any statement it
// accepts must survive a parse -> print -> parse round trip with a
// stable rendering (print(parse(print(s))) == print(s)). That pins the
// printer and parser to the same grammar.
func FuzzParser(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			if stmt != nil {
				t.Fatal("Parse returned both a statement and an error")
			}
			return
		}
		printed := stmt.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-parse of printed statement failed: %v\nprinted: %s", err, printed)
		}
		if got := again.String(); got != printed {
			t.Fatalf("printing is not a fixed point:\nfirst:  %s\nsecond: %s", printed, got)
		}
	})
}
