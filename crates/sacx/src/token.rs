//! Every line-oriented text format in the workspace, declared once.
//!
//! A line is space-separated tokens; strings are percent-escaped into one
//! token each. Each token type the formats use is a [`Field`]: it writes
//! its tokens and reads back exactly what it wrote — decimal numbers with
//! no sign and no leading zero, lowercase fixed-width hex, escaped
//! strings, `-` for "none", `0`/`1` flags, counted lists, attribute lists,
//! keywords, and raw blocks that ride after their line. A format is one of
//! two shapes, and both are declarations, not code:
//!
//! * **a line** — [`line!`](crate::line): a keyword-tagged enum (or a
//!   struct) whose variants list their fields. The declaration generates
//!   the enum, its keyword enum (`ALL`, `name`, `parse`), the [`Field`]
//!   impl, [`Line::encode`] and a [`Line::decode`] that always ends in
//!   [`Tokens::finish`] and refuses a body byte nobody read. The `EditOp`
//!   spelling, WAL records (`WalOp`), `cxq1` requests, responses and
//!   errors, and xTagger commands are lines.
//! * **a directive file** — [`directives!`](crate::directives): an exact
//!   magic line, then numbered directive lines, each a keyword and its
//!   fields; a singleton directive appears exactly once, a repeated one any
//!   number of times; raw blocks follow their line under one bounds and
//!   UTF-8 rule; an optional footer (a CRC line or an `end` line) closes
//!   the file. Stand-off, `DocBlob`, snapshot manifests, wire snapshots and
//!   edition bundles are directive files; stand-off and editions also skip
//!   blank lines, `#` comments and trailing blanks, for hand editing.
//!
//! A decoder is never written by hand (clippy refuses [`Tokens::new`]). The
//! declarations list their fields ([`Line::SHAPES`], [`Directives::SPEC`])
//! for the declaration-driven refusal tests.

use std::fmt::Write as _;
use std::marker::PhantomData;

/// Percent-escape `s` into one token free of spaces, newlines, `=` and
/// non-ASCII bytes. Non-ASCII bytes are escaped byte-wise: pushing them as
/// `char`s would re-encode each UTF-8 byte as its own code point.
fn escape_into(out: &mut String, s: &str) {
    for b in s.bytes() {
        if escaped(b) {
            let _ = write!(out, "%{b:02x}");
        } else {
            out.push(b as char);
        }
    }
}

/// The bytes a token spells as `%xx` — and the only ones it may.
fn escaped(b: u8) -> bool {
    matches!(b, b'%' | b'\n' | b'\r' | b' ' | b'=' | 0..=0x1f | 0x80..)
}

/// Undo [`escape_into`]: every `%` introduces two lowercase hex digits.
fn unescape_token(s: &str) -> Result<String, String> {
    let mut bytes: Vec<u8> = Vec::with_capacity(s.len());
    let raw = s.as_bytes();
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == b'%' {
            let hex = raw.get(i + 1..i + 3).ok_or("truncated percent escape")?;
            // Two lowercase hex digits of a byte that needs them, exactly as
            // `escape_into` writes them.
            let b = std::str::from_utf8(hex)
                .ok()
                .and_then(|h| hex_lower(h, 2))
                .filter(|&b| escaped(b as u8))
                .ok_or_else(|| {
                    format!("invalid percent escape %{}", String::from_utf8_lossy(hex))
                })?;
            bytes.push(b as u8);
            i += 3;
        } else {
            bytes.push(raw[i]);
            i += 1;
        }
    }
    String::from_utf8(bytes).map_err(|_| "escape does not decode to UTF-8".to_string())
}

/// `tok` as exactly `width` lowercase hex digits: the `{:0width$x}` a
/// writer emits, and no other spelling.
pub fn hex_lower(tok: &str, width: usize) -> Option<u64> {
    if tok.bytes().any(|b| b.is_ascii_uppercase()) {
        return None;
    }
    xmlcore::num::hex_fixed(tok, width)
}

/// `tok` as a decimal with no sign and no leading zero, in one pass.
pub fn dec(tok: &str) -> Option<u64> {
    match tok.as_bytes() {
        [] | [b'0', _, ..] => None,
        digits => digits.iter().try_fold(0u64, |n, &d| {
            n.checked_mul(10)?.checked_add(u64::from(d.checked_sub(b'0').filter(|&v| v < 10)?))
        }),
    }
}

const fn crc_table() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[i] = c;
        i += 1;
    }
    t
}

const CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3) of a byte string: the checksum of WAL records and of
/// the directive files with a CRC footer.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// One line being written (at the end of `line`, from `start`): its
/// tokens, and the raw bytes that follow it (blocks, or a frame's body), if
/// any field wrote some.
#[derive(Debug, Default)]
pub struct Writer {
    line: String,
    start: usize,
    body: Option<Vec<u8>>,
}

impl Writer {
    /// Start the next token: a space unless the line is still empty.
    pub fn token(&mut self) -> &mut String {
        if self.line.len() > self.start {
            self.line.push(' ');
        }
        &mut self.line
    }

    /// Write one token verbatim.
    pub fn word(&mut self, tok: &str) {
        self.token().push_str(tok);
    }

    /// The bytes after the line; asking for them gives the line a body.
    fn body(&mut self) -> &mut Vec<u8> {
        self.body.get_or_insert_with(Vec::new)
    }

    /// The line written so far (what a record CRC covers).
    pub fn line(&self) -> &str {
        &self.line[self.start..]
    }

    /// The line, then `\n` and the body if there is one.
    pub fn into_bytes(self) -> Vec<u8> {
        let mut out = self.line.into_bytes();
        if let Some(body) = self.body {
            out.push(b'\n');
            out.extend_from_slice(&body);
        }
        out
    }

    /// The text so far, the line's `\n`, and the body.
    pub fn into_text(mut self) -> String {
        self.line.push('\n');
        if let Some(body) = &self.body {
            // A body written to a text is a block of text: never lossy.
            self.line.push_str(&String::from_utf8_lossy(body));
        }
        self.line
    }
}

/// A cursor over one line's space-separated tokens and the bytes after the
/// line. Every failure is a bare detail string (`expected <what>`), which
/// each format wraps in its own error type.
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    rest: Option<&'a str>,
    after: Option<&'a [u8]>,
    taken: usize,
    body_read: bool,
    alias: bool,
}

impl<'a> Tokens<'a> {
    /// Start at the first token of `line`. Clippy refuses this call: a
    /// format is declared ([`line!`](crate::line), [`directives!`](crate::directives)).
    pub fn new(line: &'a str) -> Tokens<'a> {
        Tokens::over(line, None)
    }

    fn over(line: &'a str, after: Option<&'a [u8]>) -> Tokens<'a> {
        Tokens { rest: Some(line), after, taken: 0, body_read: false, alias: false }
    }

    /// The next raw token.
    pub fn token(&mut self, what: &str) -> Result<&'a str, String> {
        let rest = self.rest.ok_or_else(|| format!("expected {what}"))?;
        let (tok, tail) =
            rest.split_once(' ').map_or((rest, None), |(tok, tail)| (tok, Some(tail)));
        self.rest = tail;
        Ok(tok)
    }

    /// The next raw token, not consumed.
    pub fn peek(&self) -> Option<&'a str> {
        self.rest.map(|r| r.split_once(' ').map_or(r, |(tok, _)| tok))
    }

    /// Consume `kw` (which may span several tokens) if the line continues
    /// with exactly it.
    pub fn eat(&mut self, kw: &str) -> bool {
        let Some(rest) = self.rest else { return false };
        match rest.strip_prefix(kw) {
            Some("") => self.rest = None,
            Some(tail) if tail.starts_with(' ') => self.rest = Some(&tail[1..]),
            _ => return false,
        }
        true
    }

    /// The line must be exhausted.
    pub fn finish(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(tok) => Err(format!("unexpected trailing token {tok:?}")),
        }
    }

    /// The bytes after the line that no field has taken yet.
    fn after(&mut self, what: &str) -> Result<&'a [u8], String> {
        self.body_read = true;
        let after = self.after.ok_or_else(|| format!("expected {what} after the line"))?;
        Ok(&after[self.taken..])
    }

    /// Take `len` bytes after the line: the one bounds rule of blocks.
    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], String> {
        let after = self.after(what)?;
        let bytes = after
            .get(..len)
            .ok_or_else(|| format!("{what} length {len} exceeds the {} bytes left", after.len()))?;
        self.taken += len;
        Ok(bytes)
    }

    /// Whether the keyword just read was its variant's alias; `set`
    /// records it (the declarations do), reading clears it.
    pub fn alias(&mut self, set: Option<bool>) -> bool {
        std::mem::replace(&mut self.alias, set.unwrap_or(false))
    }
}

/// Read a payload — one line, then optionally `\n` and a body — with `read`,
/// then require that nothing is left: no token on the line, no body byte.
/// The line is split off before any UTF-8 check, so a raw body reaches its
/// field byte for byte.
pub fn decode_payload<T>(
    payload: &[u8],
    read: impl FnOnce(&mut Tokens<'_>) -> Result<T, String>,
) -> Result<T, String> {
    let (line, after) = match payload.iter().position(|&b| b == b'\n') {
        Some(at) => (&payload[..at], Some(&payload[at + 1..])),
        None => (payload, None),
    };
    let line = std::str::from_utf8(line).map_err(|_| "line is not utf-8".to_string())?;
    let mut t = Tokens::over(line, after);
    let value = read(&mut t)?;
    t.finish()?;
    // A payload has a body exactly when some field read one, all of it.
    match after.map(|after| &after[t.taken..]) {
        Some(rest) if !t.body_read || !rest.is_empty() => Err(format!(
            "unexpected bytes after the line: {:?}",
            String::from_utf8_lossy(rest.get(..32).unwrap_or(rest))
        )),
        _ => Ok(value),
    }
}

/// Read one line whose blocks follow it in `after`, with `read`; returns
/// the value and the block bytes it took.
pub fn decode_line<T>(
    line: &str,
    after: &[u8],
    read: impl FnOnce(&mut Tokens<'_>) -> Result<T, String>,
) -> Result<(T, usize), String> {
    let mut t = Tokens::over(line, Some(after));
    let value = read(&mut t)?;
    t.finish()?;
    Ok((value, t.taken))
}

/// One token type: how a value of `T` is written to a line and read back.
/// The implementing type is the *spelling* — `T` itself for its default
/// spelling, a marker type ([`Hex`], [`Bare`], [`Attrs`], [`Block`],
/// [`Body`], …) for another.
pub trait Field<T = Self> {
    /// Append the value's tokens (each through [`Writer::token`]) and any
    /// bytes it carries after the line.
    fn write(v: &T, w: &mut Writer);
    /// Read exactly what [`Field::write`] writes, and nothing else.
    fn read(t: &mut Tokens<'_>, what: &str) -> Result<T, String>;
    /// Whether the value travels under its variant's alias keyword (see
    /// [`Aliased`]).
    fn aliased(_: &T) -> bool {
        false
    }
}

macro_rules! unsigned_fields {
    ($($t:ty),*) => {$(
        /// Decimal, no sign, no leading zero.
        impl Field for $t {
            fn write(v: &$t, w: &mut Writer) {
                let _ = write!(w.token(), "{v}");
            }
            fn read(t: &mut Tokens<'_>, what: &str) -> Result<$t, String> {
                t.token(what)
                    .ok()
                    .and_then(dec)
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| format!("expected {what}"))
            }
        }
    )*};
}

unsigned_fields!(u16, u32, u64, usize);

/// `1` or `0`.
impl Field for bool {
    fn write(v: &bool, w: &mut Writer) {
        w.word(if *v { "1" } else { "0" });
    }
    fn read(t: &mut Tokens<'_>, what: &str) -> Result<bool, String> {
        match t.token(what)? {
            "1" => Ok(true),
            "0" => Ok(false),
            _ => Err(format!("expected {what} flag")),
        }
    }
}

/// A node id: decimal.
impl Field for goddag::NodeId {
    fn write(v: &goddag::NodeId, w: &mut Writer) {
        u32::write(&v.0, w);
    }
    fn read(t: &mut Tokens<'_>, what: &str) -> Result<goddag::NodeId, String> {
        u32::read(t, what).map(goddag::NodeId)
    }
}

/// A string, in the [`Escaped`] spelling.
impl Field for String {
    fn write(v: &String, w: &mut Writer) {
        Escaped::write(v, w);
    }
    fn read(t: &mut Tokens<'_>, what: &str) -> Result<String, String> {
        Escaped::read(t, what)
    }
}

/// `-` for none, else the value.
impl<T: Field> Field for Option<T> {
    fn write(v: &Option<T>, w: &mut Writer) {
        match v {
            Some(v) => T::write(v, w),
            None => w.word("-"),
        }
    }
    fn read(t: &mut Tokens<'_>, what: &str) -> Result<Option<T>, String> {
        if t.peek() == Some("-") {
            t.token(what)?;
            return Ok(None);
        }
        T::read(t, what).map(Some)
    }
}

/// `<k> <item 1> … <item k>`.
impl<T: Field> Field for Vec<T> {
    fn write(v: &Vec<T>, w: &mut Writer) {
        usize::write(&v.len(), w);
        v.iter().for_each(|item| T::write(item, w));
    }
    fn read(t: &mut Tokens<'_>, what: &str) -> Result<Vec<T>, String> {
        let k = usize::read(t, what)?;
        // The count is untrusted input: cap the pre-allocation.
        let mut out = Vec::with_capacity(k.min(1 << 12));
        for _ in 0..k {
            out.push(T::read(t, what)?);
        }
        Ok(out)
    }
}

/// Both fields, in order.
impl<A: Field, B: Field> Field for (A, B) {
    fn write(v: &(A, B), w: &mut Writer) {
        A::write(&v.0, w);
        B::write(&v.1, w);
    }
    fn read(t: &mut Tokens<'_>, what: &str) -> Result<(A, B), String> {
        Ok((A::read(t, what)?, B::read(t, what)?))
    }
}

/// Exactly `W` lowercase hex digits.
pub struct Hex<const W: usize>;

impl<const W: usize> Field<u64> for Hex<W> {
    fn write(v: &u64, w: &mut Writer) {
        let _ = write!(w.token(), "{v:0W$x}");
    }
    fn read(t: &mut Tokens<'_>, what: &str) -> Result<u64, String> {
        hex_lower(t.token(what)?, W).ok_or_else(|| format!("expected hex {what}"))
    }
}

/// How a string becomes one token (or one side of an attribute pair).
pub trait Spelling {
    /// Append the escaped form.
    fn put(out: &mut String, s: &str);
    /// Undo [`Spelling::put`].
    fn get(tok: &str) -> Result<String, String>;
}

/// Percent escapes, and `""` as a lone `%` (otherwise unproducible — a
/// `%` always introduces two hex digits): the default string spelling.
pub struct Escaped;

impl Spelling for Escaped {
    fn put(out: &mut String, s: &str) {
        if s.is_empty() {
            out.push('%');
        } else {
            escape_into(out, s);
        }
    }
    fn get(tok: &str) -> Result<String, String> {
        match tok {
            "%" => Ok(String::new()),
            _ => unescape_token(tok),
        }
    }
}

/// Percent escapes, and `""` as an empty token: stand-off's spelling.
pub struct Bare;

impl Spelling for Bare {
    fn put(out: &mut String, s: &str) {
        escape_into(out, s);
    }
    fn get(tok: &str) -> Result<String, String> {
        unescape_token(tok)
    }
}

/// A string in spelling `S` is one token.
impl<S: Spelling> Field<String> for S {
    fn write(v: &String, w: &mut Writer) {
        S::put(w.token(), v);
    }
    fn read(t: &mut Tokens<'_>, what: &str) -> Result<String, String> {
        S::get(t.token(what)?)
    }
}

/// `name=value` pairs, both sides in spelling `S`, with no count: `=` is
/// always escaped inside a string, so a token holds a raw `=` exactly when
/// it is a pair, and the list ends at the first token without one —
/// whatever follows it on the line still parses.
pub struct Attrs<S = Escaped>(PhantomData<S>);

impl<S: Spelling> Field<Vec<(String, String)>> for Attrs<S> {
    fn write(v: &Vec<(String, String)>, w: &mut Writer) {
        for (k, v) in v {
            let out = w.token();
            S::put(out, k);
            out.push('=');
            S::put(out, v);
        }
    }
    fn read(t: &mut Tokens<'_>, _: &str) -> Result<Vec<(String, String)>, String> {
        let mut attrs = Vec::new();
        while let Some((k, v)) = t.peek().and_then(|tok| tok.split_once('=')) {
            attrs.push((S::get(k)?, S::get(v)?));
            t.token("attribute")?;
        }
        Ok(attrs)
    }
}

/// An `Option` whose presence picks its variant's alias keyword (a
/// [`line!`](crate::line) variant declared `= "kw" | Alias = "alias"`):
/// nothing under the keyword, the value under the alias.
pub struct Aliased<S>(PhantomData<S>);

impl<T, S: Field<T>> Field<Option<T>> for Aliased<S> {
    fn write(v: &Option<T>, w: &mut Writer) {
        if let Some(v) = v {
            S::write(v, w);
        }
    }
    fn read(t: &mut Tokens<'_>, what: &str) -> Result<Option<T>, String> {
        if t.alias(None) {
            S::read(t, what).map(Some)
        } else {
            Ok(None)
        }
    }
    fn aliased(v: &Option<T>) -> bool {
        v.is_some()
    }
}

/// A value that travels as raw bytes after its line.
pub trait Raw: Sized {
    /// Append the bytes.
    fn put(&self, out: &mut Vec<u8>);
    /// Read a value from exactly these bytes.
    fn take(bytes: &[u8]) -> Result<Self, String>;
}

impl Raw for String {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
    fn take(bytes: &[u8]) -> Result<String, String> {
        String::from_utf8(bytes.to_vec()).map_err(|_| "text is not utf-8".to_string())
    }
}

impl Raw for Vec<u8> {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn take(bytes: &[u8]) -> Result<Vec<u8>, String> {
        Ok(bytes.to_vec())
    }
}

/// A length-prefixed block: its byte length as the last token of the
/// line, the bytes after it. The block ends at a line boundary: a `\n` follows unless the block
/// ends in one — or always, when `NEWLINE` is set (stand-off content).
pub struct Block<const NEWLINE: bool = false>;

impl<T: Raw, const NEWLINE: bool> Field<T> for Block<NEWLINE> {
    fn write(v: &T, w: &mut Writer) {
        let body = w.body();
        let start = body.len();
        v.put(body);
        let len = body.len() - start;
        if NEWLINE || !body.ends_with(b"\n") || len == 0 {
            body.push(b'\n');
        }
        usize::write(&len, w);
    }
    fn read(t: &mut Tokens<'_>, what: &str) -> Result<T, String> {
        let len = usize::read(t, what)?;
        // The length ends its line: a stray token is reported as one, not
        // misread as a block.
        t.finish()?;
        let bytes = t.take(len, what)?;
        if (NEWLINE || !bytes.ends_with(b"\n")) && t.take(1, what).ok() != Some(b"\n") {
            return Err("block not followed by a newline".into());
        }
        T::take(bytes)
    }
}

/// A frame's whole body: nothing on the line, every byte after it.
pub struct Body;

impl<T: Raw> Field<T> for Body {
    fn write(v: &T, w: &mut Writer) {
        v.put(w.body());
    }
    fn read(t: &mut Tokens<'_>, what: &str) -> Result<T, String> {
        let len = t.after(what)?.len();
        T::take(t.take(len, what)?)
    }
}

/// A counted list whose items are whole lines of the body: the count on
/// this line, then one `\n`-terminated line per item.
pub struct Lines<S>(PhantomData<S>);

impl<T, S: Field<T>> Field<Vec<T>> for Lines<S> {
    fn write(v: &Vec<T>, w: &mut Writer) {
        usize::write(&v.len(), w);
        let mut lines = Writer::default();
        for item in v {
            S::write(item, &mut lines);
            lines.line.push('\n');
            w.body().extend_from_slice(lines.line.as_bytes());
            lines.line.clear();
        }
        w.body();
    }
    fn read(t: &mut Tokens<'_>, what: &str) -> Result<Vec<T>, String> {
        let k = usize::read(t, what)?;
        let mut out = Vec::with_capacity(k.min(1 << 12));
        t.after(what)?;
        for _ in 0..k {
            let nl = t.after(what)?.iter().position(|&b| b == b'\n').ok_or("unterminated line")?;
            let line = &t.take(nl + 1, what)?[..nl];
            let line = std::str::from_utf8(line).map_err(|_| format!("{what} is not utf-8"))?;
            let mut line = Tokens::over(line, None);
            out.push(S::read(&mut line, what)?);
            line.finish()?;
        }
        Ok(out)
    }
}

/// One declared line shape: its keyword (empty for a struct line) and its
/// fields as `(name, spelling)`. An alias and the untagged variant are not
/// listed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// The keyword the shape travels under.
    pub keyword: &'static str,
    /// `(field name, type and spelling)` in line order.
    pub fields: &'static [(&'static str, &'static str)],
}

/// A declared line: [`line!`](crate::line) implements it.
pub trait Line: Field + Sized {
    /// Every shape the line can take.
    const SHAPES: &'static [Shape];

    /// The line, and `\n` plus the body if a field carries one.
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        Self::write(self, &mut w);
        w.into_bytes()
    }

    /// Read exactly what [`Line::encode`] writes: a leftover token or body
    /// byte is an error.
    fn decode(payload: &[u8]) -> Result<Self, String> {
        decode_payload(payload, |t| Self::read(t, "line"))
    }
}

/// The spelling of a declared field (its type, or the `as` marker), and
/// the return type of `kind()` with and without an untagged variant.
#[doc(hidden)]
#[macro_export]
macro_rules! __line {
    ($t:ty) => { $t };
    ($t:ty, $s:ty) => { $s };
    (kind $kind:ident) => { $kind };
    (kind $kind:ident $else_variant:ident) => { ::std::option::Option<$kind> };
    (wrap $kind:ident) => { $kind };
    (wrap $kind:ident $else_variant:ident) => { Some($kind) };
}

/// Declare a closed keyword set once: the enum, `ALL`, `name()` (the
/// token, also what `Display` writes) and `parse()` — whose `_` arm is the
/// only wildcard any decoder of the format needs; everything downstream
/// matches on the enum and the compiler checks it is exhaustive. As a
/// [`Field`] the keyword is its name, which may span several tokens.
#[macro_export]
macro_rules! vocabulary {
    ($(#[$meta:meta])* $vis:vis enum $name:ident ($what:literal) {
        $($(#[$vmeta:meta])* $variant:ident = $tok:literal),+ $(,)?
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        $vis enum $name { $($(#[$vmeta])* $variant),+ }

        impl $name {
            /// Every keyword, in declaration order.
            $vis const ALL: &'static [$name] = &[$($name::$variant),+];

            /// The keyword as it is written.
            $vis const fn name(self) -> &'static str {
                match self { $($name::$variant => $tok),+ }
            }

            /// Read a keyword, which may span several tokens; anything else
            /// is the error.
            $vis fn parse(t: &mut $crate::Tokens<'_>) -> ::std::result::Result<$name, ::std::string::String> {
                match $name::ALL.iter().find(|k| t.eat(k.name())) {
                    Some(&k) => Ok(k),
                    None => Err(format!(concat!("unknown ", $what, " `{}`"), t.peek().unwrap_or(""))),
                }
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(self.name())
            }
        }

        impl $crate::Field for $name {
            fn write(v: &$name, w: &mut $crate::Writer) {
                w.word(v.name());
            }
            fn read(
                t: &mut $crate::Tokens<'_>,
                _: &str,
            ) -> ::std::result::Result<$name, ::std::string::String> {
                $name::parse(t)
            }
        }
    };
}

/// Declare a line format once.
///
/// **An enum** is tagged by a keyword per variant; the declaration also
/// generates the keyword enum (`$kind`, through
/// [`vocabulary!`](crate::vocabulary)) and `kind()`:
///
/// ```text
/// line! {
///     pub enum EditOp: pub OpKind("edit op") {
///         RemoveElement(node: NodeId) = "rmel",
///         InsertText { offset: usize, text: String } = "instext",
///         …
///     }
/// }
/// ```
///
/// A field is `name: Type`, or `name: Type as Spelling` for a spelling
/// other than the type's own ([`Hex`], [`Bare`], [`Attrs`], [`Block`],
/// [`Body`], [`Lines`], …); fields are written and read in declaration
/// order. A variant may add `| Alias = "alias"`: its first field is then
/// `Option<_> as Aliased<_>`, absent under the keyword and present under
/// the alias. One last variant may follow `} else`, untagged: a single
/// field that reads its own keyword, tried when no declared keyword
/// matches (its `kind()` is `None`).
///
/// **A struct** is its fields in order, with no keyword.
///
/// Both implement [`Field`] and [`Line`] (`encode`, and a `decode` that
/// ends in [`Tokens::finish`]).
#[macro_export]
macro_rules! line {
    (
        $(#[$meta:meta])* $vis:vis enum $name:ident : $kvis:vis $kind:ident ($what:literal) {
            $(
                $(#[$vmeta:meta])* $variant:ident
                $( ( $($tf:ident : $tty:ty $(as $ts:ty)?),* $(,)? ) )?
                $( { $($(#[$fmeta:meta])* $sf:ident : $sty:ty $(as $ss:ty)?),* $(,)? } )?
                = $tok:literal $(| $alias:ident = $atok:literal)?
            ),+ $(,)?
        } $(else $(#[$emeta:meta])* $else_variant:ident ($else_field:ident : $else_ty:ty))?
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])* $variant
                $( ( $($tty),* ) )?
                $( { $($(#[$fmeta])* $sf: $sty),* } )?,
            )+
            $($(#[$emeta])* $else_variant($else_ty),)?
        }

        $crate::vocabulary! {
            #[doc = concat!("The keyword a [`", stringify!($name), "`] travels under.")]
            $kvis enum $kind($what) {
                $(
                    #[doc = concat!("[`", stringify!($name), "::", stringify!($variant), "`].")]
                    $variant = $tok,
                    $(
                        #[doc = concat!(
                            "[`", stringify!($name), "::", stringify!($variant), "`], aliased."
                        )]
                        $alias = $atok,
                    )?
                )+
            }
        }

        impl $name {
            /// The keyword this value travels under.
            #[allow(dead_code, reason = "not every format asks for its keyword")]
            $kvis fn kind(&self) -> $crate::__line!(kind $kind $($else_variant)?) {
                let kind = match self {
                    $(
                        $name::$variant $( ( $($tf),* ) )? $( { $($sf),* } )? => {
                            let aliased = false
                                $($( | <$crate::__line!($tty $(, $ts)?) as $crate::Field<$tty>>::aliased($tf) )*)?
                                $($( | <$crate::__line!($sty $(, $ss)?) as $crate::Field<$sty>>::aliased($sf) )*)?;
                            let kind = $kind::$variant;
                            $( let kind = if aliased { $kind::$alias } else { kind }; )?
                            let _ = aliased;
                            kind
                        }
                    )+
                    $($name::$else_variant(_) => return None,)?
                };
                $crate::__line!(wrap kind $($else_variant)?)
            }
        }

        impl $crate::Field for $name {
            fn write(v: &$name, w: &mut $crate::Writer) {
                let kind: ::std::option::Option<$kind> = v.kind().into();
                if let Some(kind) = kind {
                    w.word(kind.name());
                }
                match v {
                    $(
                        $name::$variant $( ( $($tf),* ) )? $( { $($sf),* } )? => {
                            $($( <$crate::__line!($tty $(, $ts)?) as $crate::Field<$tty>>::write($tf, w); )*)?
                            $($( <$crate::__line!($sty $(, $ss)?) as $crate::Field<$sty>>::write($sf, w); )*)?
                        }
                    )+
                    $($name::$else_variant(v) => <$else_ty as $crate::Field>::write(v, w),)?
                }
            }

            fn read(
                t: &mut $crate::Tokens<'_>,
                _what: &str,
            ) -> ::std::result::Result<$name, ::std::string::String> {
                // A keyword that does not parse consumed nothing: the
                // untagged variant reads it as its own.
                let kind = $kind::parse(t);
                $(
                    if kind.is_err() {
                        return <$else_ty as $crate::Field>::read(t, _what).map($name::$else_variant);
                    }
                )?
                let kind = kind?;
                let value = match kind {
                    $(
                        $kind::$variant $( | $kind::$alias )? => {
                            t.alias(Some(kind != $kind::$variant));
                            $name::$variant
                            $( ( $( <$crate::__line!($tty $(, $ts)?) as $crate::Field<$tty>>::read(t, stringify!($tf))? ),* ) )?
                            $( { $( $sf: <$crate::__line!($sty $(, $ss)?) as $crate::Field<$sty>>::read(t, stringify!($sf))? ),* } )?
                        }
                    )+
                };
                if t.alias(None) {
                    return Err(format!("{kind} takes no alias"));
                }
                Ok(value)
            }
        }

        impl $crate::Line for $name {
            const SHAPES: &'static [$crate::Shape] = &[$(
                $crate::Shape {
                    keyword: $tok,
                    fields: &[
                        $($( (stringify!($tf), stringify!($tty $(as $ts)?)) ),*)?
                        $($( (stringify!($sf), stringify!($sty $(as $ss)?)) ),*)?
                    ],
                },
            )+];
        }
    };

    (
        $(#[$meta:meta])* $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $f:ident : $fty:ty $(as $fs:ty)?),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $f: $fty),+
        }

        impl $crate::Field for $name {
            fn write(v: &$name, w: &mut $crate::Writer) {
                $( <$crate::__line!($fty $(, $fs)?) as $crate::Field<$fty>>::write(&v.$f, w); )+
            }

            fn read(
                t: &mut $crate::Tokens<'_>,
                _: &str,
            ) -> ::std::result::Result<$name, ::std::string::String> {
                Ok($name {
                    $( $f: <$crate::__line!($fty $(, $fs)?) as $crate::Field<$fty>>::read(t, stringify!($f))? ),+
                })
            }
        }

        impl $crate::Line for $name {
            const SHAPES: &'static [$crate::Shape] = &[$crate::Shape {
                keyword: "",
                fields: &[$( (stringify!($f), stringify!($fty $(as $fs)?)) ),+],
            }];
        }
    };
}

/// What closes a directive file: nothing, `crc <8 lowercase hex digits>`
/// (the [`crc32`] of every byte before it), or an `end` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Footer {
    None,
    Crc,
    End,
}

/// One declared directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Directive {
    /// Its keyword.
    pub keyword: &'static str,
    /// Exactly once (`true`) or any number of times.
    pub once: bool,
    /// `(field name, type and spelling)` in line order.
    pub fields: &'static [(&'static str, &'static str)],
}

/// A declared directive file's grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// The exact first line.
    pub magic: &'static str,
    /// What closes the file.
    pub footer: Footer,
    /// Skip blank lines and `#` comments and ignore trailing blanks (for
    /// hand-edited files).
    pub lenient: bool,
    /// The directives, in the order the writer emits them.
    pub directives: &'static [Directive],
}

/// A declared directive file: [`directives!`](crate::directives)
/// implements it.
pub trait Directives: Sized {
    /// The file's grammar.
    const SPEC: Spec;
    /// The whole file.
    fn to_file(&self) -> String;
    /// Read the whole file; a failure names its 1-based line (0 for the
    /// footer).
    fn from_file(input: &str) -> Result<Self, (usize, String)>;
}

#[doc(hidden)]
pub fn write_directive(out: &mut String, keyword: &str, fields: impl FnOnce(&mut Writer)) {
    let start = out.len();
    let mut w = Writer { line: std::mem::take(out), start, body: None };
    w.word(keyword);
    fields(&mut w);
    *out = w.into_text();
}

#[doc(hidden)]
pub fn write_footer(spec: &Spec, out: &mut String) {
    match spec.footer {
        Footer::None => {}
        Footer::Crc => {
            let crc = crc32(out.as_bytes());
            let _ = writeln!(out, "crc {crc:08x}");
        }
        Footer::End => out.push_str("end\n"),
    }
}

/// Walk a directive file: check the footer and the magic line, then hand
/// each directive line to `each` (with the directive's index in the spec)
/// and enforce the singleton rule. `each` reads the line's fields; the
/// cursor's [`Tokens::finish`] and the block bookkeeping are done here.
#[doc(hidden)]
pub fn read_directives<'a>(
    input: &'a str,
    spec: &Spec,
    mut each: impl FnMut(usize, &mut Tokens<'a>) -> Result<(), String>,
) -> Result<(), (usize, String)> {
    let body = match spec.footer {
        Footer::None => input,
        Footer::Crc => {
            let at = input.strip_suffix('\n').and_then(|s| s.rfind('\n')).map_or(0, |i| i + 1);
            let (body, footer) = input.split_at(at);
            let crc = footer.strip_prefix("crc ").and_then(|f| f.strip_suffix('\n'));
            if crc.and_then(|h| hex_lower(h, 8)) != Some(u64::from(crc32(body.as_bytes()))) {
                return Err((0, "missing crc footer or CRC mismatch".into()));
            }
            body
        }
        Footer::End => input
            .strip_suffix("end\n")
            .filter(|b| b.ends_with('\n'))
            .ok_or((0, "truncated (missing end marker)".to_string()))?,
    };
    let mut rest = body
        .strip_prefix(spec.magic)
        .and_then(|r| r.strip_prefix('\n'))
        .ok_or((1, "bad magic line".to_string()))?;
    let mut seen = vec![0usize; spec.directives.len()];
    let mut ln = 1;
    while !rest.is_empty() {
        ln += 1;
        // A hand-edited file may lack its last newline.
        let (line, after) = match rest.split_once('\n') {
            Some(split) => split,
            None if spec.lenient => (rest, ""),
            None => return Err((ln, "unterminated line".to_string())),
        };
        rest = after;
        let line = if spec.lenient { line.trim_end() } else { line };
        if spec.lenient && (line.is_empty() || line.starts_with('#')) {
            continue;
        }
        let mut t = Tokens::over(line, Some(rest.as_bytes()));
        let mut directive = || -> Result<(), String> {
            let kw = t.token("directive")?;
            let i = spec
                .directives
                .iter()
                .position(|d| d.keyword == kw)
                .ok_or_else(|| format!("unknown directive {kw:?}"))?;
            if spec.directives[i].once && seen[i] > 0 {
                return Err(format!("repeated {kw} directive"));
            }
            seen[i] += 1;
            each(i, &mut t)?;
            t.finish()?;
            // Blocks are UTF-8 by construction; a cut inside a char fails
            // the block's own UTF-8 check.
            rest = rest.get(t.taken..).ok_or("block splits a UTF-8 char")?;
            Ok(())
        };
        directive().map_err(|detail| (ln, detail))?;
    }
    match spec.directives.iter().zip(&seen).find(|(d, &n)| d.once && n == 0) {
        Some((d, _)) => Err((ln, format!("missing {} directive", d.keyword))),
        None => Ok(()),
    }
}

/// The pieces of [`directives!`](crate::directives) that differ between
/// singleton (`once`) and repeated (`many`) directives.
#[doc(hidden)]
#[macro_export]
macro_rules! __directive {
    (ty once $t:ty) => { $t };
    (ty many $t:ty) => { ::std::vec::Vec<$t> };
    (once once) => { true };
    (once many) => { false };
    (init once) => { None };
    (init many) => { Vec::new() };
    (take once $v:ident) => { $v.ok_or_else(|| (0, concat!("missing ", stringify!($v)).to_string()))? };
    (take many $v:ident) => { $v };
    (lenient) => { false };
    (lenient lenient) => { true };
    (write once $out:ident $kw:literal $($v:ident : $t:ty $(as $s:ty)?),*) => {
        $crate::token::write_directive(&mut $out, $kw, |w| {
            $( <$crate::__line!($t $(, $s)?) as $crate::Field<$t>>::write($v, w); )*
        });
    };
    (write many $out:ident $kw:literal $v:ident : $t:ty $(as $s:ty)?) => {
        for item in $v {
            $crate::token::write_directive(&mut $out, $kw, |w| {
                <$crate::__line!($t $(, $s)?) as $crate::Field<$t>>::write(item, w);
            });
        }
    };
    (read once $t_:ident $($v:ident : $t:ty $(as $s:ty)?),*) => {
        $( $v = Some(<$crate::__line!($t $(, $s)?) as $crate::Field<$t>>::read($t_, stringify!($v))?); )*
    };
    (read many $t_:ident $v:ident : $t:ty $(as $s:ty)?) => {
        $v.push(<$crate::__line!($t $(, $s)?) as $crate::Field<$t>>::read($t_, stringify!($v))?);
    };
}

/// Declare a directive file once: the struct, its [`Spec`], and
/// [`Directives`] (`to_file`, and a `from_file` that checks the magic
/// line, every line's trailing tokens, the singleton rule, the block
/// bounds and the footer).
///
/// ```text
/// directives! {
///     pub struct Manifest("#cxmanifest v1", Crc) -> PersistError::Codec {
///         "lsn" once { lsn: u64 },
///         "doc" many { docs: ManifestDoc },
///     }
/// }
/// ```
///
/// A singleton (`once`) directive's fields become struct fields of their
/// declared type; a repeated (`many`) directive has one field, and the
/// struct holds a `Vec` of it. Directives are written in declaration
/// order. `lenient` after the footer turns on blank lines, `#` comments
/// and trailing blanks. `-> Error::Variant` also generates `to_text` and a
/// `parse_text` whose failure is `Error::Variant { line, detail }`.
#[macro_export]
macro_rules! directives {
    (
        $(#[$meta:meta])* $vis:vis struct $name:ident ($magic:literal, $footer:ident $(, $lenient:ident)?)
        $(-> $err:ident :: $err_variant:ident)? {
            $(
                $kw:literal $mode:ident {
                    $($(#[$fmeta:meta])* $f:ident : $fty:ty $(as $fs:ty)?),+ $(,)?
                }
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($($(#[$fmeta])* pub $f: $crate::__directive!(ty $mode $fty),)+)+
        }

        $(
            impl $name {
                /// The whole file.
                pub fn to_text(&self) -> ::std::string::String {
                    $crate::Directives::to_file(self)
                }

                /// Read the whole file: the declared grammar, and nothing else.
                pub fn parse_text(input: &str) -> ::std::result::Result<$name, $err> {
                    $crate::Directives::from_file(input)
                        .map_err(|(line, detail)| $err::$err_variant { line, detail })
                }
            }
        )?

        impl $crate::Directives for $name {
            const SPEC: $crate::token::Spec = $crate::token::Spec {
                magic: $magic,
                footer: $crate::token::Footer::$footer,
                lenient: $crate::__directive!(lenient $($lenient)?),
                directives: &[$(
                    $crate::token::Directive {
                        keyword: $kw,
                        once: $crate::__directive!(once $mode),
                        fields: &[$( (stringify!($f), stringify!($fty $(as $fs)?)) ),+],
                    },
                )+],
            };

            fn to_file(&self) -> ::std::string::String {
                let $name { $($($f,)+)+ } = self;
                let mut out = format!("{}\n", $magic);
                $( $crate::__directive!(write $mode out $kw $($f : $fty $(as $fs)?),+); )+
                $crate::token::write_footer(&Self::SPEC, &mut out);
                out
            }

            fn from_file(
                input: &str,
            ) -> ::std::result::Result<$name, (usize, ::std::string::String)> {
                $($( let mut $f = $crate::__directive!(init $mode); )+)+
                $crate::token::read_directives(input, &Self::SPEC, |i, t| {
                    let mut index = 0usize;
                    $(
                        if i == index {
                            $crate::__directive!(read $mode t $($f : $fty $(as $fs)?),+);
                        }
                        index += 1;
                    )+
                    let _ = index;
                    Ok(())
                })?;
                Ok($name { $($( $f: $crate::__directive!(take $mode $f), )+)+ })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    vocabulary! {
        /// Test keywords.
        enum Fruit("fruit") { Apple = "apple", Pear = "pear" }
    }

    crate::line! {
        /// A test line.
        #[derive(Debug, Clone, PartialEq)]
        enum Probe: ProbeKind("probe") {
            Unit = "unit",
            One(n: u64) = "one",
            Named { id: u64 as Hex<4>, name: Option<String> as Aliased<String>, attrs: Vec<(String, String)> as Attrs } = "named" | NamedAs = "named-as",
            Text { text: String as Body } = "text",
        }
    }

    crate::directives! {
        /// A test file.
        #[derive(Debug, Clone, PartialEq)]
        struct Sample("#sample v1", Crc) {
            "size" once { width: u32, height: u32 },
            "item" many { items: (u16, String) },
            "blob" once { blob: String as Block },
        }
    }

    fn tokens(line: &str) -> Tokens<'_> {
        Tokens::over(line, None)
    }

    #[test]
    fn fields_roundtrip_hard_strings() {
        let escape = |s: &str| {
            let mut out = String::new();
            Escaped::put(&mut out, s);
            out
        };
        for s in ["", "%", "a b", "x=y", "line\nbreak", "tab\there", "æøå", "100%"] {
            let e = escape(s);
            assert!(!e.is_empty() && !e.contains([' ', '\n', '=']), "{e:?}");
            assert_eq!(Escaped::get(&e).unwrap(), s);
        }
        assert!(Escaped::get("%4").is_err());
        assert!(Escaped::get("%zz").is_err());
        // One spelling per byte: `%0f` only, and only for bytes that need it.
        assert_eq!(Escaped::get("%0f").unwrap(), "\x0f");
        for s in ["%+f", "%-f", "% f", "%f+", "a%+fb", "%0F", "%41", "%2d"] {
            assert!(Escaped::get(s).is_err(), "{s:?}");
        }
        assert_eq!(Bare::get("").unwrap(), "");
        assert!(Bare::get("%").is_err());
    }

    #[test]
    fn numbers_have_one_spelling() {
        let read = |s: &str| u64::read(&mut tokens(s), "n");
        assert_eq!(read("5"), Ok(5));
        assert_eq!(read("0"), Ok(0));
        for bad in ["+5", "05", "00", "-5", "", "5x", "18446744073709551616"] {
            assert_eq!(read(bad), Err("expected n".into()), "{bad:?}");
        }
        let hex = |s: &str| <Hex<4> as Field<u64>>::read(&mut tokens(s), "id");
        assert_eq!(hex("00ff"), Ok(255));
        for bad in ["ff", "00FF", "+0ff", "000ff", "0x1f"] {
            assert!(hex(bad).is_err(), "{bad:?}");
        }
        let flag = |s: &str| bool::read(&mut tokens(s), "flag");
        assert_eq!((flag("1"), flag("0")), (Ok(true), Ok(false)));
        assert!(flag("2").is_err() && flag("01").is_err());
    }

    #[test]
    fn a_line_reads_back_exactly_what_it_wrote() {
        let samples = [
            Probe::Unit,
            Probe::One(7),
            Probe::Named { id: 255, name: None, attrs: vec![("k=".into(), String::new())] },
            Probe::Named { id: 1, name: Some("two words".into()), attrs: Vec::new() },
            Probe::Text { text: "body\nwith lines".into() },
        ];
        for p in samples {
            let bytes = p.encode();
            assert_eq!(Probe::decode(&bytes), Ok(p.clone()), "{}", String::from_utf8_lossy(&bytes));
        }
        assert_eq!(Probe::Unit.encode(), b"unit");
        assert_eq!(
            Probe::Named { id: 1, name: Some("a".into()), attrs: Vec::new() }.encode(),
            b"named-as 0001 a"
        );
        assert_eq!(Probe::Text { text: String::new() }.encode(), b"text\n");
        for bad in [
            "unit x",
            "one",
            "one 7 8",
            "one 07",
            "named 0001 a",
            "named-as 0001",
            "text",
            "plum",
            "unit\n",
        ] {
            assert!(Probe::decode(bad.as_bytes()).is_err(), "{bad:?}");
        }
        assert_eq!(ProbeKind::ALL.len(), 5);
        assert_eq!(Probe::SHAPES[2].fields[0].0, "id");
        assert!(Probe::SHAPES[2].fields[0].1.contains("Hex"));
    }

    #[test]
    fn a_directive_file_has_one_spelling() {
        let s = Sample {
            width: 3,
            height: 4,
            items: vec![(1, "a b".into()), (0, String::new())],
            blob: "raw\nblock".into(),
        };
        let text = s.to_file();
        assert_eq!(
            text.split("crc ").next().unwrap(),
            "#sample v1\nsize 3 4\nitem 1 a%20b\nitem 0 %\nblob 9\nraw\nblock\n"
        );
        assert_eq!(Sample::from_file(&text), Ok(s));
        let seal = |body: &str| format!("{body}crc {:08x}\n", crc32(body.as_bytes()));
        let body = &text[..text.rfind("crc ").unwrap()];
        for bad in [
            body.replace("#sample v1", " #sample v1"),
            body.replace("size 3 4\n", "size 3 4\nsize 3 4\n"),
            body.replace("size 3 4", "size 3 4 5"),
            body.replace("size 3 4", "size 3"),
            body.replace("size 3 4\n", ""),
            body.replace("block\n", "block\n\n"),
            body.replace("blob 9", "blob 99"),
            body.replace("item 0 %\n", "item 0 %\n\n"),
            body.replace("item 0 %\n", "wat\n"),
        ] {
            assert!(Sample::from_file(&seal(&bad)).is_err(), "{bad:?}");
        }
        assert!(Sample::from_file(&text.replace("crc ", "crc  ")).is_err());
        assert!(Sample::from_file(&text.to_uppercase()).is_err());
    }

    #[test]
    fn vocabulary_parses_exactly_its_keywords() {
        assert_eq!(Fruit::ALL, [Fruit::Apple, Fruit::Pear]);
        let parse = |s: &str| decode_payload(s.as_bytes(), Fruit::parse);
        for &f in Fruit::ALL {
            assert_eq!(parse(f.name()), Ok(f));
        }
        assert_eq!(parse("plum"), Err("unknown fruit `plum`".into()));
        assert!(parse("apple pear").is_err());
    }
}
