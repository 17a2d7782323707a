//! Minimal Netpbm (PGM/PPM) reading and writing.
//!
//! PGM (`P5`) covers the grayscale pipeline inputs/outputs; PPM (`P6`) is
//! used by the RGB extension example. Implemented from the Netpbm spec so
//! the crate stays dependency-free.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::image::ImageU8;
use crate::rgb::RgbImageU8;

/// Upper bound on either image dimension accepted by the readers — a
/// sanity cap so a corrupt header cannot drive a near-`usize::MAX`
/// allocation (the multiplication itself is checked as well).
pub const MAX_DIM: usize = 1 << 20;

/// Parses and validates the `width height maxval` header triple shared by
/// PGM and PPM, returning `(width, height, pixel_count, maxval)` with the
/// product overflow-checked and both dimensions capped at [`MAX_DIM`].
fn read_dims<R: BufRead>(r: &mut R) -> io::Result<(usize, usize, usize, usize)> {
    let width: usize = parse_token(r)?;
    let height: usize = parse_token(r)?;
    let maxval: usize = parse_token(r)?;
    if width == 0 || height == 0 || width > MAX_DIM || height > MAX_DIM {
        return Err(bad_data(format!(
            "unsupported dimensions {width}x{height} (limit {MAX_DIM} per axis)"
        )));
    }
    if maxval == 0 || maxval > 255 {
        return Err(bad_data(format!("unsupported maxval {maxval}")));
    }
    let n = width
        .checked_mul(height)
        .ok_or_else(|| bad_data(format!("dimensions {width}x{height} overflow")))?;
    Ok((width, height, n, maxval))
}

/// Writes a grayscale image as binary PGM (`P5`, maxval 255).
pub fn write_pgm(path: &Path, img: &ImageU8) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write!(w, "P5\n{} {}\n255\n", img.width(), img.height())?;
    w.write_all(img.pixels())?;
    Ok(())
}

/// Writes an RGB image as binary PPM (`P6`, maxval 255).
pub fn write_ppm(path: &Path, img: &RgbImageU8) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write!(w, "P6\n{} {}\n255\n", img.width(), img.height())?;
    w.write_all(img.bytes())?;
    Ok(())
}

/// Reads a PGM image — binary (`P5`) or ASCII (`P2`) — with maxval ≤ 255.
pub fn read_pgm(path: &Path) -> io::Result<ImageU8> {
    let mut r = BufReader::new(File::open(path)?);
    let magic = read_token(&mut r)?;
    if magic != "P5" && magic != "P2" {
        return Err(bad_data(format!("expected P5/P2 magic, got {magic:?}")));
    }
    let (width, height, n, maxval) = read_dims(&mut r)?;
    let data = if magic == "P5" {
        let mut data = vec![0u8; n];
        r.read_exact(&mut data)?;
        data
    } else {
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            let v = parse_token::<_, u16>(&mut r)?;
            if v as usize > maxval {
                return Err(bad_data(format!("sample {v} exceeds maxval {maxval}")));
            }
            data.push(v as u8);
        }
        data
    };
    Ok(ImageU8::from_vec(width, height, data))
}

/// Reads a binary PPM (`P6`) image with maxval ≤ 255.
pub fn read_ppm(path: &Path) -> io::Result<RgbImageU8> {
    let mut r = BufReader::new(File::open(path)?);
    let magic = read_token(&mut r)?;
    if magic != "P6" {
        return Err(bad_data(format!("expected P6 magic, got {magic:?}")));
    }
    let (width, height, n, _maxval) = read_dims(&mut r)?;
    let bytes = n
        .checked_mul(3)
        .ok_or_else(|| bad_data(format!("dimensions {width}x{height} overflow")))?;
    let mut data = vec![0u8; bytes];
    r.read_exact(&mut data)?;
    Ok(RgbImageU8::from_vec(width, height, data))
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads one whitespace-delimited header token, skipping `#` comments.
/// Longest header token accepted (magic, dimension, maxval or ASCII
/// sample). Every valid token is far shorter; the cap keeps a header of
/// endless digits from growing memory without bound.
pub const MAX_TOKEN: usize = 64;

fn read_token<R: BufRead>(r: &mut R) -> io::Result<String> {
    let mut tok = String::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && !tok.is_empty() => break,
            Err(e) => return Err(e),
        }
        let c = byte[0] as char;
        if c == '#' {
            skip_comment(r)?;
            continue;
        }
        if c.is_ascii_whitespace() {
            if tok.is_empty() {
                continue;
            }
            break;
        }
        if tok.len() >= MAX_TOKEN {
            return Err(bad_data(format!(
                "header token longer than {MAX_TOKEN} bytes"
            )));
        }
        tok.push(c);
    }
    Ok(tok)
}

/// Skips a comment's bytes up to and including the end of its line (or
/// the end of input), without decoding them: Netpbm comments may hold any
/// bytes, not only UTF-8.
fn skip_comment<R: BufRead>(r: &mut R) -> io::Result<()> {
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return Ok(());
        }
        match buf.iter().position(|&b| b == b'\n' || b == b'\r') {
            Some(i) => {
                r.consume(i + 1);
                return Ok(());
            }
            None => {
                let n = buf.len();
                r.consume(n);
            }
        }
    }
}

fn parse_token<R: BufRead, T: std::str::FromStr>(r: &mut R) -> io::Result<T> {
    let tok = read_token(r)?;
    tok.parse::<T>()
        .map_err(|_| bad_data(format!("bad header token {tok:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageU8;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("imagekit-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn pgm_roundtrip() {
        let img = ImageU8::from_vec(3, 2, vec![0, 64, 128, 192, 255, 7]);
        let p = tmpfile("a.pgm");
        write_pgm(&p, &img).unwrap();
        let back = read_pgm(&p).unwrap();
        assert_eq!(back, img);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn ppm_roundtrip() {
        let img = RgbImageU8::from_vec(2, 1, vec![255, 0, 0, 0, 255, 0]);
        let p = tmpfile("b.ppm");
        write_ppm(&p, &img).unwrap();
        let back = read_ppm(&p).unwrap();
        assert_eq!(back.bytes(), img.bytes());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn pgm_with_comments_parses() {
        let p = tmpfile("c.pgm");
        std::fs::write(&p, b"P5\n# a comment\n2 1\n255\n\x10\x20").unwrap();
        let img = read_pgm(&p).unwrap();
        assert_eq!(img.pixels(), &[0x10, 0x20]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn wrong_magic_rejected() {
        let p = tmpfile("d.pgm");
        std::fs::write(&p, b"P6\n2 1\n255\nxxxxxx").unwrap();
        assert!(read_pgm(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn ascii_pgm_parses() {
        let p = tmpfile("f.pgm");
        std::fs::write(&p, b"P2\n# ascii variant\n3 2\n255\n0 64 128\n192 255 7\n").unwrap();
        let img = read_pgm(&p).unwrap();
        assert_eq!(img.pixels(), &[0, 64, 128, 192, 255, 7]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn ascii_pgm_truncated_rejected() {
        let p = tmpfile("g.pgm");
        std::fs::write(&p, b"P2\n3 2\n255\n0 64 128\n").unwrap();
        assert!(read_pgm(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn truncated_body_rejected() {
        let p = tmpfile("e.pgm");
        std::fs::write(&p, b"P5\n4 4\n255\nxx").unwrap();
        assert!(read_pgm(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn ascii_sample_above_maxval_rejected() {
        // The reader used to clamp out-of-range ASCII samples to 255;
        // they must be an InvalidData error instead.
        for (name, body) in [
            ("h1.pgm", &b"P2\n2 1\n255\n0 300\n"[..]),
            ("h2.pgm", &b"P2\n2 1\n100\n0 101\n"[..]),
        ] {
            let p = tmpfile(name);
            std::fs::write(&p, body).unwrap();
            let err = read_pgm(&p).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn oversized_or_degenerate_dims_rejected() {
        let huge = format!("P5\n{} {}\n255\n", usize::MAX / 2, 3);
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("i1.pgm", b"P5\n0 4\n255\n".to_vec()),
            ("i2.pgm", b"P5\n4 0\n255\n".to_vec()),
            (
                "i3.pgm",
                format!("P5\n{} 4\n255\n", MAX_DIM + 1).into_bytes(),
            ),
            ("i4.pgm", huge.into_bytes()),
            ("i5.pgm", b"P5\n4 4\n0\n".to_vec()),
            ("i6.pgm", b"P5\n4 4\n65536\n".to_vec()),
        ];
        for (name, body) in cases {
            let p = tmpfile(name);
            std::fs::write(&p, &body).unwrap();
            let err = read_pgm(&p).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            std::fs::remove_file(&p).ok();
        }
        // Same header validation on the PPM path.
        let p = tmpfile("i7.ppm");
        std::fs::write(&p, format!("P6\n{} 4\n255\n", MAX_DIM + 1)).unwrap();
        assert_eq!(read_ppm(&p).unwrap_err().kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn latin1_comment_parses() {
        // `# café scan` in Latin-1: the comment is not valid UTF-8, which
        // a line-decoding skip rejected.
        let p = tmpfile("k1.pgm");
        std::fs::write(&p, b"P5\n# caf\xe9 scan\n2 1\n255\n\x10\x20").unwrap();
        let img = read_pgm(&p).unwrap();
        assert_eq!(img.pixels(), &[0x10, 0x20]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn latin1_comment_parses_in_ppm_header() {
        let p = tmpfile("k2.ppm");
        std::fs::write(&p, b"P6\n# caf\xe9 scan\n1 1\n255\n\x01\x02\x03").unwrap();
        let img = read_ppm(&p).unwrap();
        assert_eq!(img.bytes(), &[1, 2, 3]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn over_long_header_token_rejected() {
        let mut body = b"P5\n".to_vec();
        body.extend(std::iter::repeat_n(b'7', 1 << 20));
        body.extend(b" 1\n255\n\x00");
        let p = tmpfile("k3.pgm");
        std::fs::write(&p, &body).unwrap();
        let err = read_pgm(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("longer than"), "{err}");
        std::fs::remove_file(&p).ok();
        // A token exactly at the cap is still read (and then rejected as a
        // dimension, not as a token).
        let at_cap = "1".repeat(MAX_TOKEN);
        let mut cur = io::Cursor::new(format!("{at_cap} x").into_bytes());
        assert_eq!(read_token(&mut cur).unwrap(), at_cap);
    }

    #[test]
    fn header_corpus_parses() {
        // Comment placement and whitespace variants the spec allows.
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("j1.pgm", b"P5 2 1 255\n\x01\x02".to_vec()),
            (
                "j2.pgm",
                b"P5\n# c1\n# c2\n2\n# between dims\n1\n255\n\x01\x02".to_vec(),
            ),
            ("j3.pgm", b"P2\n2 1\n255\n  1\t2\n".to_vec()),
        ];
        for (name, body) in cases {
            let p = tmpfile(name);
            std::fs::write(&p, &body).unwrap();
            let img = read_pgm(&p).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(img.pixels(), &[1, 2], "{name}");
            std::fs::remove_file(&p).ok();
        }
    }
}
