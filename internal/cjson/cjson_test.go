package cjson

import (
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"
)

// stringSamples covers every single byte, the runes encoding/json escapes
// specially, and multi-byte text next to escapes.
func stringSamples() []string {
	var ss []string
	for c := 0; c < 256; c++ {
		ss = append(ss, string([]byte{byte(c)}), "a"+string([]byte{byte(c)})+"z")
	}
	return append(ss, "", "divlab.key/v1\nworkload=stream.pure\n", "\xe2\x80\xa8\xe2\x80\xa9", "caf\xc3\xa9",
		"\xed\xa0\x80", "\xef\xbf\xbd", "\xf0\x9f\x98\x80<&>", `"\"`, "\x7f\x00\x1f")
}

// TestAppendStringMatchesEncodingJSON: AppendString writes what json.Marshal
// writes for every sample, and the Decoder reads each valid-UTF-8 sample back.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range stringSamples() {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendString(nil, s)
		if string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, encoding/json writes %s", s, got, want)
			continue
		}
		d := NewDecoder(got)
		back := d.Str()
		d.End()
		if utf8.ValidString(s) {
			if d.Err() != nil || back != s {
				t.Errorf("String(%s) = %q, %v; want %q", got, back, d.Err(), s)
			}
		} else if d.Err() == nil && string(AppendString(nil, back)) != string(got) {
			t.Errorf("String(%s) = %q does not re-encode to its input", got, back)
		}
	}
}

// TestDecoderRejectsNonCanonical: spellings encoding/json accepts but never
// writes are refused.
func TestDecoderRejectsNonCanonical(t *testing.T) {
	for _, in := range []string{
		`"\/"`, `"\u0041"`, `"\u000A"`, `"\u000a"`, `"\u003C"`, `"\ufffd"`, `"\ud83d\ude00"`,
		`"<"`, "\"\x01\"", "\"\xe2\x80\xa8\"", "\"\xff\"", `"abc`, `"\`, `"\u00`, `abc`,
	} {
		d := NewDecoder([]byte(in))
		d.Str()
		d.End()
		if d.Err() == nil {
			t.Errorf("String accepted %s", in)
		}
	}
	for _, tc := range []struct {
		in  string
		max uint64
		ok  bool
	}{
		{"0", 1, true}, {"7", 7, true}, {"8", 7, false}, {"00", 9, false}, {"01", 9, false},
		{"-1", 9, false}, {"+1", 9, false}, {"", 9, false},
		{"18446744073709551615", math.MaxUint64, true}, {"18446744073709551616", math.MaxUint64, false},
		{"4294967295", math.MaxUint32, true}, {"4294967296", math.MaxUint32, false},
	} {
		d := NewDecoder([]byte(tc.in))
		d.Uint(tc.max)
		d.End()
		if (d.Err() == nil) != tc.ok {
			t.Errorf("Uint(%q, max %d): err %v, want ok=%v", tc.in, tc.max, d.Err(), tc.ok)
		}
	}
	for in, want := range map[string]int{"0": 0, "-1": -1, "12": 12, "-9223372036854775808": math.MinInt64} {
		d := NewDecoder([]byte(in))
		if got := d.Int(); d.Err() != nil || got != want {
			t.Errorf("Int(%q) = %d, %v; want %d", in, got, d.Err(), want)
		}
	}
	for _, in := range []string{"-0", "-", "--1", "-01", "9223372036854775808"} {
		d := NewDecoder([]byte(in))
		d.Int()
		d.End()
		if d.Err() == nil {
			t.Errorf("Int accepted %q", in)
		}
	}
}
