// Package cjson holds the primitives of the store's canonical JSON: the exact
// bytes encoding/json's Marshal writes (no whitespace, HTML-safe string
// escapes), and a strict single-pass reader that accepts only those bytes.
//
// The result codec (internal/sim) and the record envelope (internal/store)
// are built from these primitives by hand, so reading a record scans it once
// with no reflection, and a record that decodes re-encodes to the same bytes.
package cjson

import (
	"bytes"
	"fmt"
	"math"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string exactly as encoding/json's Marshal
// writes it: '"' and '\\' backslash-escaped; \b, \f, \n, \r and \t short
// escapes; other control bytes and '<', '>', '&' as \u00xx; U+2028 and U+2029
// as \u2028 and \u2029; invalid UTF-8 as \ufffd. Everything else is copied.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if plain(c) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch {
			case c == '"' || c == '\\':
				dst = append(dst, '\\', c)
			case escapeLetter(c) != 0:
				dst = append(dst, '\\', escapeLetter(c))
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// plain reports whether ASCII byte c is copied into a string unescaped.
func plain(c byte) bool {
	return c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// Decoder reads canonical JSON from a byte slice, one token at a time. It
// never skips whitespace and rejects every spelling Marshal would not write:
// signs and leading zeros on numbers, escapes Marshal does not use, raw bytes
// it would escape. The first failure sticks: later calls return zero values,
// and Err reports the failure with its offset.
type Decoder struct {
	buf []byte
	pos int
	err error
}

// NewDecoder returns a Decoder positioned at the start of b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Pos returns the offset of the next unread byte.
func (d *Decoder) Pos() int { return d.pos }

// Since returns the bytes read since offset from (a Pos result).
func (d *Decoder) Since(from int) []byte { return d.buf[from:d.pos] }

// Rest returns the unread bytes.
func (d *Decoder) Rest() []byte { return d.buf[d.pos:] }

// Fail records a failure at the current offset unless one is already set.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("offset %d: %s", d.pos, fmt.Sprintf(format, args...))
	}
}

// Lit consumes the literal s.
func (d *Decoder) Lit(s string) {
	if d.err != nil {
		return
	}
	if len(d.buf)-d.pos < len(s) || string(d.buf[d.pos:d.pos+len(s)]) != s {
		d.Fail("want %q", s)
		return
	}
	d.pos += len(s)
}

// Byte consumes the single byte c.
func (d *Decoder) Byte(c byte) {
	if d.err != nil {
		return
	}
	if d.pos >= len(d.buf) || d.buf[d.pos] != c {
		d.Fail("want %q", c)
		return
	}
	d.pos++
}

// Null consumes a JSON null if one is next and reports whether it did.
func (d *Decoder) Null() bool {
	if d.err != nil || !bytes.HasPrefix(d.buf[d.pos:], []byte("null")) {
		return false
	}
	d.pos += 4
	return true
}

// More drives a list loop over the elements of an array or object whose
// opening byte has been consumed:
//
//	for i := 0; d.More(']', i); i++ { /* read element i */ }
//
// It consumes the comma before every element but the first, or the closing
// byte, and returns false at the close or on failure.
func (d *Decoder) More(close byte, i int) bool {
	if d.err != nil {
		return false
	}
	if d.pos < len(d.buf) && d.buf[d.pos] == close {
		d.pos++
		return false
	}
	if i > 0 {
		d.Byte(',')
	}
	return d.err == nil
}

// End requires that every byte has been read.
func (d *Decoder) End() {
	if d.err == nil && d.pos != len(d.buf) {
		d.Fail("%d trailing bytes", len(d.buf)-d.pos)
	}
}

// Uint reads an unsigned decimal integer no greater than max: at least one
// digit, no sign, no leading zero.
func (d *Decoder) Uint(max uint64) uint64 {
	if d.err != nil {
		return 0
	}
	b, i := d.buf, d.pos
	if i >= len(b) || b[i]-'0' > 9 {
		d.Fail("want a digit")
		return 0
	}
	if b[i] == '0' {
		if i+1 < len(b) && b[i+1]-'0' <= 9 {
			d.Fail("leading zero")
			return 0
		}
		d.pos = i + 1
		return 0
	}
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		c := uint64(b[i] - '0')
		if c > max || v > (max-c)/10 {
			d.Fail("number exceeds %d", max)
			return 0
		}
		v = v*10 + c
	}
	d.pos = i
	return v
}

// Int reads a decimal int: an optional '-' before a Uint, with "-0" refused.
func (d *Decoder) Int() int {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) || d.buf[d.pos] != '-' {
		return int(d.Uint(math.MaxInt))
	}
	d.pos++
	v := d.Uint(uint64(math.MaxInt) + 1)
	if d.err == nil && v == 0 {
		d.Fail("negative zero")
	}
	return int(-v)
}

// Str reads a JSON string in AppendString's spelling. Input that
// AppendString would not write for any valid UTF-8 string is refused,
// including \ufffd, which it writes only for invalid UTF-8.
func (d *Decoder) Str() string {
	d.Byte('"')
	if d.err != nil {
		return ""
	}
	start := d.pos
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		if c == '"' {
			d.pos++
			return string(d.buf[start : d.pos-1])
		}
		if c >= utf8.RuneSelf || !plain(c) {
			break
		}
		d.pos++
	}
	out := append([]byte(nil), d.buf[start:d.pos]...)
	for d.err == nil && d.pos < len(d.buf) {
		c := d.buf[d.pos]
		switch {
		case c == '"':
			d.pos++
			return string(out)
		case c == '\\':
			out = d.escape(out)
		case c < utf8.RuneSelf:
			if !plain(c) {
				d.Fail("unescaped byte %#x in string", c)
				return ""
			}
			out = append(out, c)
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.buf[d.pos:])
			if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
				d.Fail("invalid or unescaped rune in string")
				return ""
			}
			out = append(out, d.buf[d.pos:d.pos+size]...)
			d.pos += size
		}
	}
	d.Fail("unterminated string")
	return ""
}

// escape decodes the backslash escape at the current offset onto out.
func (d *Decoder) escape(out []byte) []byte {
	rest := d.buf[d.pos:]
	if len(rest) < 2 {
		d.Fail("truncated escape")
		return out
	}
	if short := shortEscape(rest[1]); short != 0 {
		d.pos += 2
		return append(out, short)
	}
	if rest[1] != 'u' || len(rest) < 6 {
		d.Fail("non-canonical escape")
		return out
	}
	var v rune
	for _, h := range rest[2:6] {
		n := bytes.IndexByte([]byte(hexDigits), h)
		if n < 0 {
			d.Fail("non-canonical escape")
			return out
		}
		v = v<<4 | rune(n)
	}
	switch {
	case v < utf8.RuneSelf && !plain(byte(v)) && v != '"' && v != '\\' && escapeLetter(byte(v)) == 0:
		out = append(out, byte(v))
	case v == '\u2028' || v == '\u2029':
		out = utf8.AppendRune(out, v)
	default:
		d.Fail("non-canonical escape")
		return out
	}
	d.pos += 6
	return out
}

// shortEscape maps the letter of a two-byte escape to the byte it stands for,
// or returns 0.
func shortEscape(letter byte) byte {
	switch letter {
	case '"', '\\':
		return letter
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return 0
}

// escapeLetter is shortEscape's inverse for the control bytes that have a
// two-byte escape, and 0 for any other byte.
func escapeLetter(c byte) byte {
	switch c {
	case '\b':
		return 'b'
	case '\f':
		return 'f'
	case '\n':
		return 'n'
	case '\r':
		return 'r'
	case '\t':
		return 't'
	}
	return 0
}
