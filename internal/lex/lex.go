// Package lex tokenizes Prolog source text for the reader. It understands
// the 1980s DEC-10 Prolog surface syntax used by the PSI benchmark
// programs: unquoted and quoted atoms, variables, integers, punctuation,
// symbol-character operators, list and parenthesis brackets, strings as
// code lists, and both comment styles.
package lex

import (
	"fmt"
	"strings"
	"unicode"
)

// Kind classifies tokens.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	AtomTok
	VarTok
	IntTok
	StrTok   // "..." string; Text holds the contents
	PunctTok // ( ) [ ] { } , | and the solo atom !
	EndTok   // clause-terminating full stop
	FunctTok // atom immediately followed by '(' — a functor application
)

var kindNames = [...]string{"eof", "atom", "var", "int", "str", "punct", "end", "functor"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Token is one lexical item.
type Token struct {
	Kind Kind
	Text string
	Int  int64
	Line int
}

func (t Token) String() string {
	switch t.Kind {
	case IntTok:
		return fmt.Sprintf("%d", t.Int)
	case EOF:
		return "<eof>"
	case EndTok:
		return "."
	default:
		return t.Text
	}
}

// Lexer scans a source string.
type Lexer struct {
	src  string
	pos  int
	line int
}

// New returns a lexer over src.
func New(src string) *Lexer { return &Lexer{src: src, line: 1} }

// Error is a lexical error with line information.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("line %d: %s", e.Line, e.Msg) }

func (l *Lexer) errf(format string, args ...interface{}) error {
	return &Error{Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekAt(d int) byte {
	if l.pos+d >= len(l.src) {
		return 0
	}
	return l.src[l.pos+d]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.advance()
		case c == '%':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekAt(1) == '*':
			start := l.line
			l.advance()
			l.advance()
			for {
				if l.pos >= len(l.src) {
					return &Error{Line: start, Msg: "unterminated block comment"}
				}
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isLower(c byte) bool { return c >= 'a' && c <= 'z' }
func isUpper(c byte) bool { return c >= 'A' && c <= 'Z' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlnum(c byte) bool { return isLower(c) || isUpper(c) || isDigit(c) || c == '_' }

const symbolChars = "+-*/\\^<>=~:.?@#&$"

func isSymbolChar(c byte) bool { return strings.IndexByte(symbolChars, c) >= 0 }

// Scan reads the next token into t. On error it leaves t unchanged.
func (l *Lexer) Scan(t *Token) error {
	if err := l.skipSpaceAndComments(); err != nil {
		return err
	}
	if l.pos >= len(l.src) {
		*t = Token{Kind: EOF, Line: l.line}
		return nil
	}
	line := l.line
	c := l.peek()
	switch {
	case isLower(c):
		start := l.pos
		for l.pos < len(l.src) && isAlnum(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		if l.peek() == '(' {
			*t = Token{Kind: FunctTok, Text: text, Line: line}
			return nil
		}
		*t = Token{Kind: AtomTok, Text: text, Line: line}
		return nil

	case isUpper(c) || c == '_':
		start := l.pos
		for l.pos < len(l.src) && isAlnum(l.peek()) {
			l.advance()
		}
		*t = Token{Kind: VarTok, Text: l.src[start:l.pos], Line: line}
		return nil

	case isDigit(c):
		return l.lexNumber(t, line)

	case c == '\'':
		return l.lexQuoted(t, line)

	case c == '"':
		l.advance()
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return l.errf("unterminated string")
			}
			ch := l.advance()
			if ch == '"' {
				if l.peek() == '"' { // doubled quote escape
					l.advance()
					b.WriteByte('"')
					continue
				}
				break
			}
			if ch == '\\' {
				e, err := l.escape()
				if err != nil {
					return err
				}
				b.WriteRune(e)
				continue
			}
			b.WriteByte(ch)
		}
		*t = Token{Kind: StrTok, Text: b.String(), Line: line}
		return nil

	case c == '(' || c == ')' || c == '[' || c == ']' || c == '{' || c == '}' || c == ',' || c == '|' || c == '!' || c == ';':
		l.advance()
		text := l.src[l.pos-1 : l.pos]
		if c == '!' || c == ';' {
			*t = Token{Kind: AtomTok, Text: text, Line: line}
			return nil
		}
		*t = Token{Kind: PunctTok, Text: text, Line: line}
		return nil

	case isSymbolChar(c):
		start := l.pos
		for l.pos < len(l.src) && isSymbolChar(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		// A lone '.' is the clause terminator unless immediately applied
		// to arguments, as in '.'(H,T) written .(H,T).
		if text == "." && l.peek() != '(' {
			*t = Token{Kind: EndTok, Text: ".", Line: line}
			return nil
		}
		if l.peek() == '(' {
			*t = Token{Kind: FunctTok, Text: text, Line: line}
			return nil
		}
		*t = Token{Kind: AtomTok, Text: text, Line: line}
		return nil

	default:
		if c < 128 && unicode.IsPrint(rune(c)) {
			return l.errf("unexpected character %q", c)
		}
		return l.errf("unexpected byte %#x", c)
	}
}

func (l *Lexer) lexNumber(t *Token, line int) error {
	start := l.pos
	// 0'c character code syntax.
	if l.peek() == '0' && l.peekAt(1) == '\'' {
		l.advance()
		l.advance()
		if l.pos >= len(l.src) {
			return l.errf("unterminated character code")
		}
		ch := l.advance()
		if ch == '\\' {
			e, err := l.escape()
			if err != nil {
				return err
			}
			*t = Token{Kind: IntTok, Int: int64(e), Line: line}
			return nil
		}
		if ch == '\'' {
			// 0''' writes the quote character as a doubled quote.
			if l.peek() != '\'' {
				return l.errf("expected doubled quote in 0''' character code")
			}
			l.advance()
		}
		*t = Token{Kind: IntTok, Int: int64(ch), Line: line}
		return nil
	}
	for l.pos < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	text := l.src[start:l.pos]
	var v int64
	for i := 0; i < len(text); i++ {
		v = v*10 + int64(text[i]-'0')
		if v > 1<<40 {
			return l.errf("integer literal %s out of range", text)
		}
	}
	*t = Token{Kind: IntTok, Int: v, Line: line}
	return nil
}

func (l *Lexer) lexQuoted(t *Token, line int) error {
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.pos >= len(l.src) {
			return l.errf("unterminated quoted atom")
		}
		c := l.advance()
		if c == '\'' {
			if l.peek() == '\'' {
				l.advance()
				b.WriteByte('\'')
				continue
			}
			break
		}
		if c == '\\' {
			e, err := l.escape()
			if err != nil {
				return err
			}
			b.WriteRune(e)
			continue
		}
		b.WriteByte(c)
	}
	text := b.String()
	if l.peek() == '(' {
		*t = Token{Kind: FunctTok, Text: text, Line: line}
		return nil
	}
	*t = Token{Kind: AtomTok, Text: text, Line: line}
	return nil
}

func (l *Lexer) escape() (rune, error) {
	if l.pos >= len(l.src) {
		return 0, l.errf("unterminated escape")
	}
	c := l.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case 'a':
		return 7, nil
	case 'b':
		return 8, nil
	case 'f':
		return 12, nil
	case 'v':
		return 11, nil
	case '\\', '\'', '"', '`':
		return rune(c), nil
	case '\n':
		return 0, l.errf("line continuation escapes are not supported")
	default:
		return 0, l.errf("unknown escape \\%c", c)
	}
}

// All tokenizes the whole source, for tests.
func All(src string) ([]Token, error) {
	l := New(src)
	var toks []Token
	for {
		var t Token
		if err := l.Scan(&t); err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}
