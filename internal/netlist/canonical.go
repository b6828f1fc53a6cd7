package netlist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"unicode"
)

// Canonical returns the canonical text of a deck: the byte sequence two
// submissions must share to be "the same problem" for result caching.
// It is computed lexically, exactly the way the parser reads the deck:
//
//   - comments ("; ..." and "* ..." lines) are stripped,
//   - "+" continuation lines are joined into their logical line,
//   - blank lines disappear,
//   - runs of spaces/tabs collapse to a single space,
//   - parenthesized port lists lose their parentheses (the tokenizer
//     treats them as separators),
//   - a token that would not re-read as itself unquoted is quoted: a
//     quoted expression, an empty token, one holding a separator or any
//     other white space, and a line's first token when it starts with
//     "*" or "+" (a comment or continuation line once unquoted).
//
// Logical-line order is preserved — decks are programs, and reordering
// cards can change the problem — so Canonical is whitespace- and
// comment-insensitive but NOT card-order-insensitive. The result of
// canonicalizing is a fixed point: Canonical(Canonical(src)) ==
// Canonical(src).
//
// Canonical does not validate the deck beyond tokenization; callers that
// need semantic validation still run Parse + Validate.
func Canonical(src string) (string, error) {
	var b strings.Builder
	for _, ll := range logicalLines(src) {
		toks, err := fields(ll.text)
		if err != nil {
			return "", fmt.Errorf("netlist: line %d: %s", ll.line, err)
		}
		if len(toks) == 0 {
			continue
		}
		for i, tok := range toks {
			if i > 0 {
				b.WriteByte(' ')
			}
			if needsQuote(tok, i == 0) {
				b.WriteByte('\'')
				b.WriteString(tok)
				b.WriteByte('\'')
			} else {
				b.WriteString(tok)
			}
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// needsQuote reports whether a token must be quoted for the canonical
// text to re-tokenize to it. Tokens from a 'quoted expression' may be
// empty or carry separators (spaces, tabs, parentheses). Other white
// space is not a separator, but logicalLines trims it from the ends of
// a line. An unquoted first token that starts with "*" or "+" turns its
// line into a comment or a continuation. (A token can never contain a
// quote character: the tokenizer ends quoted tokens at it.)
func needsQuote(tok string, first bool) bool {
	if tok == "" || strings.ContainsAny(tok, "()") || strings.IndexFunc(tok, unicode.IsSpace) >= 0 {
		return true
	}
	return first && (tok[0] == '*' || tok[0] == '+')
}

// CanonicalHash returns the hex SHA-256 of the deck's canonical text —
// the deck half of a result-cache key. Two decks that differ only in
// whitespace, comments, or line continuations hash identically; any
// semantic difference (a changed value, an added card) changes the hash.
func CanonicalHash(src string) (string, error) {
	canon, err := Canonical(src)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:]), nil
}
