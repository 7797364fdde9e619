package otlp

import (
	"encoding/json"
	"errors"
	"fmt"
)

// maxDepth is how deep objects and arrays may nest — encoding/json's
// cap, so a "[[[[…" bomb is a syntax error here as it is there. skip
// walks nested values in a loop, never by recursion, so the bound
// protects nothing but the agreement.
const maxDepth = 10000

// errShort is the scanner's "the buffered bytes end inside the
// document": not an error of the input, which may still be arriving.
var errShort = errors.New("spans: truncated document")

// syntaxError is malformed JSON at byte off of the document.
type syntaxError struct {
	off int
	msg string
}

func (e *syntaxError) Error() string { return e.msg }

// scanner is a validating pull scanner over the buffered bytes of one
// JSON document. The walkers in otlp.go pull what they read (member,
// elem, object, array, text, numberText, raw) and skip what nobody
// reads; either way every byte is held to the JSON grammar — strings
// with their escapes and control characters, numbers, literals,
// separators, nesting — so a document is accepted here exactly when
// encoding/json would have parsed it. The first failure sticks in err
// and every later call is a no-op, which lets a walker check once per
// loop instead of once per token.
type scanner struct {
	buf   []byte
	pos   int
	depth int
	open  []byte // skip's stack of open containers, '{' or '['
	key   []byte // the current member's name, unquoted (see member)
	err   error
}

func (s *scanner) reset(buf []byte) {
	s.buf, s.pos, s.depth, s.open, s.key, s.err = buf, 0, 0, s.open[:0], nil, nil
}

// short records that the buffer ended inside the document.
func (s *scanner) short() {
	if s.err == nil {
		s.pos = len(s.buf)
		s.err = errShort
	}
}

// fail records a syntax error at the cursor.
func (s *scanner) fail(format string, args ...any) {
	if s.err == nil {
		s.err = &syntaxError{off: s.pos, msg: fmt.Sprintf(format, args...)}
	}
}

// unexpected fails on the byte at the cursor (c, as ws returned it);
// at the end of the buffer ws has already recorded errShort.
func (s *scanner) unexpected(c byte, where string) {
	s.fail("invalid character %q %s", c, where)
}

// ws skips whitespace and returns the byte at the cursor without
// consuming it; at the end of the buffer it records errShort.
func (s *scanner) ws() byte {
	for s.pos < len(s.buf) {
		c := s.buf[s.pos]
		if !isJSONSpace(c) {
			return c
		}
		s.pos++
	}
	s.short()
	return 0
}

// enter consumes an opening brace or bracket.
func (s *scanner) enter() {
	s.pos++
	if s.depth++; s.depth > maxDepth {
		s.fail("exceeded max depth")
	}
}

// leave consumes a closing brace or bracket.
func (s *scanner) leave() {
	s.pos++
	s.depth--
}

// nextKey consumes what precedes a member's name — nothing before the
// first, a comma before the others — and reports whether the cursor is
// on the name's opening quote. At the closing brace, or once the
// scanner has failed, it consumes the brace and returns false.
func (s *scanner) nextKey(first bool) bool {
	c := s.ws()
	switch {
	case s.err != nil:
		return false
	case c == '}':
		s.leave()
		return false
	case first:
	case c == ',':
		s.pos++
		c = s.ws()
	default:
		s.unexpected(c, "after object key:value pair")
		return false
	}
	if c != '"' && s.err == nil {
		s.unexpected(c, "looking for beginning of object key string")
	}
	return s.err == nil
}

// colon consumes the colon after a member's name.
func (s *scanner) colon() bool {
	c := s.ws()
	if c != ':' && s.err == nil {
		s.unexpected(c, "after object key")
	}
	s.pos++
	return s.err == nil
}

// member advances to the next member of the object the cursor is in:
// the name is left in s.key, unquoted, and the cursor before the value.
// It returns false once the object is closed or the scanner has failed.
func (s *scanner) member(first bool) bool {
	if !s.nextKey(first) {
		return false
	}
	s.key = s.str()
	return s.colon()
}

// elem advances to the next element of the array the cursor is in and
// leaves the cursor before it; it returns false once the array is
// closed or the scanner has failed.
func (s *scanner) elem(first bool) bool {
	c := s.ws()
	switch {
	case s.err != nil:
		return false
	case c == ']':
		s.leave()
		return false
	case first:
		return true
	case c != ',':
		s.unexpected(c, "after array element")
		return false
	}
	s.pos++
	if s.ws() == ']' {
		s.unexpected(']', "looking for beginning of value")
	}
	return s.err == nil
}

// strPlain marks the bytes that stand for themselves inside a string:
// printable ASCII other than the quote and the backslash.
var strPlain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// quoted scans the string whose opening quote is at the cursor and
// returns the bytes between the quotes; plain reports that they are
// the string's value as they stand (no escape, nothing outside ASCII).
func (s *scanner) quoted() (raw []byte, plain bool) {
	buf, i := s.buf, s.pos+1
	plain = true
	for i < len(buf) {
		c := buf[i]
		if strPlain[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			raw = buf[s.pos+1 : i]
			s.pos = i + 1
			return raw, plain
		case c == '\\':
			plain = false
			if i+1 == len(buf) {
				s.short()
				return nil, false
			}
			switch buf[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j == len(buf) {
						s.short()
						return nil, false
					}
					if !isHex(buf[j]) {
						s.pos = j
						s.fail("invalid character %q in \\u hexadecimal character escape", buf[j])
						return nil, false
					}
				}
				i += 6
			default:
				s.pos = i + 1
				s.fail("invalid character %q in string escape code", buf[i+1])
				return nil, false
			}
		case c < 0x20:
			s.pos = i
			s.fail("invalid character %q in string literal", c)
			return nil, false
		default: // not ASCII: encoding/json decides what it decodes to
			plain = false
			i++
		}
	}
	s.short()
	return nil, false
}

// str scans the string at the cursor and returns its value: the
// buffered bytes themselves when they can be used as they are, else
// what encoding/json unquotes them to — so escapes, \u surrogates and
// invalid UTF-8 keep its replacement rules by delegation.
func (s *scanner) str() []byte {
	start := s.pos
	raw, plain := s.quoted()
	if plain || s.err != nil {
		return raw
	}
	var v string
	if err := json.Unmarshal(s.buf[start:s.pos], &v); err != nil {
		s.pos = start
		s.fail("%v", err)
		return nil
	}
	return []byte(v)
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// numberPrefix matches b against the JSON number grammar and returns
// how many bytes belong to the number; whole reports that those bytes
// are a complete number, not one cut short ("-", "1.", "2e+").
func numberPrefix(b []byte) (n int, whole bool) {
	digits := func() bool {
		start := n
		for n < len(b) && isDigit(b[n]) {
			n++
		}
		return n > start
	}
	if n < len(b) && b[n] == '-' {
		n++
	}
	switch {
	case n < len(b) && b[n] == '0':
		n++
	case !digits():
		return n, false
	}
	if n < len(b) && b[n] == '.' {
		n++
		if !digits() {
			return n, false
		}
	}
	if n < len(b) && (b[n] == 'e' || b[n] == 'E') {
		n++
		if n < len(b) && (b[n] == '+' || b[n] == '-') {
			n++
		}
		if !digits() {
			return n, false
		}
	}
	return n, true
}

// validNumber reports whether b is a JSON number and nothing else:
// what encoding/json demands of a string given for a number.
func validNumber(b []byte) bool {
	n, whole := numberPrefix(b)
	return whole && n == len(b)
}

// number scans the number at the cursor and returns its text. A number
// never ends a document, so one that reaches the end of the buffer may
// still be growing and is short.
func (s *scanner) number() []byte {
	n, whole := numberPrefix(s.buf[s.pos:])
	start := s.pos
	s.pos += n
	switch {
	case s.pos == len(s.buf):
		s.short()
	case !whole:
		s.fail("invalid character %q in numeric literal", s.buf[s.pos])
	}
	return s.buf[start:s.pos]
}

// literal scans one of true, false and null at the cursor.
func (s *scanner) literal(word string) {
	for i := 0; i < len(word); i++ {
		if s.pos+i == len(s.buf) {
			s.short()
			return
		}
		if s.buf[s.pos+i] != word[i] {
			s.pos += i
			s.fail("invalid character %q in literal %s", s.buf[s.pos], word)
			return
		}
	}
	s.pos += len(word)
}

// scalar scans the string, number or literal that starts with c at the
// cursor; it fails on anything else, containers included.
func (s *scanner) scalar(c byte) {
	switch {
	case c == '"':
		s.quoted()
	case c == '-' || isDigit(c):
		s.number()
	case c == 't':
		s.literal("true")
	case c == 'f':
		s.literal("false")
	case c == 'n':
		s.literal("null")
	default:
		s.unexpected(c, "looking for beginning of value")
	}
}

// skip scans the value at the cursor, whatever it is, for syntax only:
// in a loop over an explicit stack, so depth costs no Go stack.
func (s *scanner) skip() {
	for {
		c, first := s.ws(), false
		if c == '{' || c == '[' {
			s.enter()
			s.open = append(s.open, c)
			first = true
		} else {
			s.scalar(c)
		}
		// Move on to the next value — the first of the container just
		// opened, else the one after the value just scanned — closing
		// every container that ends on the way.
		for {
			if s.err != nil || len(s.open) == 0 {
				s.open = s.open[:0]
				return
			}
			if s.step(first) {
				break
			}
			s.open = s.open[:len(s.open)-1]
			first = false
		}
	}
}

// step is member or elem for skip's innermost open container; a
// member's name is checked, not unquoted.
func (s *scanner) step(first bool) bool {
	if s.open[len(s.open)-1] == '[' {
		return s.elem(first)
	}
	if !s.nextKey(first) {
		return false
	}
	s.quoted()
	return s.colon()
}

// The typed pulls below hold a value to what encoding/json asks of the
// struct field it would have decoded into: a null is accepted anywhere
// and sets nothing, a value of another JSON type than the field's
// rejects the document.

// mismatch fails on a value (starting with c) of the wrong JSON type.
func (s *scanner) mismatch(c byte, want string) {
	have := ""
	switch {
	case c == '"':
		have = "string"
	case c == '{':
		have = "object"
	case c == '[':
		have = "array"
	case c == 't' || c == 'f':
		have = "bool"
	case c == '-' || isDigit(c):
		have = "number"
	default:
		s.unexpected(c, "looking for beginning of value")
		return
	}
	s.fail("cannot read JSON %s where a %s belongs", have, want)
}

// null consumes a null at the cursor and reports whether it did.
func (s *scanner) null() bool {
	if s.ws() != 'n' {
		return false
	}
	s.literal("null")
	return s.err == nil
}

// container enters the object ('{') or array ('[') at the cursor and
// reports whether it did; a null is consumed and reported as false.
func (s *scanner) container(open byte, want string) bool {
	c := s.ws()
	if c != open {
		if !s.null() {
			s.mismatch(c, want)
		}
		return false
	}
	s.enter()
	return s.err == nil
}

func (s *scanner) object() bool { return s.container('{', "object") }
func (s *scanner) array() bool  { return s.container('[', "array") }

// text scans a string field's value and returns it, old for a null.
func (s *scanner) text(old []byte) []byte {
	if c := s.ws(); c == '"' {
		return s.str()
	} else if !s.null() {
		s.mismatch(c, "string")
	}
	return old
}

// numberText scans a numeric field's value — a number, or a string
// that spells one — and returns its text, old for a null.
func (s *scanner) numberText(old []byte) []byte {
	switch c := s.ws(); {
	case c == '"':
		v := s.str()
		if s.err == nil && !validNumber(v) {
			s.fail("invalid number literal %q", v)
		}
		return v
	case c == '-' || isDigit(c):
		return s.number()
	case !s.null():
		s.mismatch(c, "number")
	}
	return old
}

// raw skips the value at the cursor and returns its bytes: a field
// that takes any JSON value.
func (s *scanner) raw() []byte {
	s.ws()
	start := s.pos
	s.skip()
	return s.buf[start:s.pos]
}
