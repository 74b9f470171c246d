"""Picture file ingestion and emission: grid text and PGM formats."""
from __future__ import annotations

from pathlib import Path

from .canvas import DEFAULT_PIXEL_CAP, Picture, PictureError, attach_picture, build_grid_canvas


def _gray_code(level: int) -> int:
    return level ^ (level >> 1)


def load_picture(path, n: int = 1, pixel_cap: int = DEFAULT_PIXEL_CAP) -> Picture:
    """Load a picture from a PGM (P2/P5) file if its suffix is .pgm, else
    from a grid text file.

    Grid files carry their own bit depth in the header; PGM gray values are
    quantized into 2^n uniform levels and Gray-coded.
    """
    path = Path(path)
    if path.suffix.lower() == ".pgm":
        return parse_pgm(path.read_bytes(), n=n, pixel_cap=pixel_cap)
    return parse_grid(path.read_text(), pixel_cap=pixel_cap)


def parse_grid(text: str, pixel_cap: int = DEFAULT_PIXEL_CAP) -> Picture:
    """Grid format: header "w h n", then w*h hex pixel tokens; '#' comments."""
    tokens = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if len(tokens) < 3:
        raise PictureError("grid file is missing the 'w h n' header")
    try:
        width, height, n = (int(t) for t in tokens[:3])
    except ValueError as exc:
        raise PictureError(f"malformed grid header: {exc}") from None
    body = tokens[3:]
    if len(body) != width * height:
        raise PictureError(
            f"expected {width * height} pixel tokens, got {len(body)}"
        )
    try:
        values = [int(t, 16) for t in body]
    except ValueError as exc:
        raise PictureError(f"malformed pixel token: {exc}") from None
    canvas = build_grid_canvas(width, height, pixel_cap=pixel_cap)
    return attach_picture(canvas, values, n)


def format_grid(picture: Picture, comment: str | None = None) -> str:
    canvas = picture.canvas
    lines = []
    if comment:
        lines.extend(f"# {row}" for row in comment.splitlines())
    lines.append(f"{canvas.width} {canvas.height} {picture.n}")
    for r in range(canvas.height):
        row = picture.values[r * canvas.width:(r + 1) * canvas.width]
        lines.append(" ".join(f"{v:x}" for v in row))
    return "\n".join(lines) + "\n"


def parse_pgm(data: bytes, n: int = 1,
              pixel_cap: int = DEFAULT_PIXEL_CAP) -> Picture:
    """PGM P2 (ASCII) or P5 (binary), quantized to Gray-coded n-bit values."""
    # maxval <= 65535 gives at most 2^16 gray levels
    if not 1 <= n <= 16:
        raise PictureError(f"PGM bit depth {n} outside 1..16")
    header, pos = _pgm_header_tokens(data)
    if len(header) < 4:
        raise PictureError("truncated PGM header")
    magic = header[0]
    try:
        width, height, maxval = (int(t) for t in header[1:4])
    except ValueError as exc:
        raise PictureError(f"malformed PGM header: {exc}") from None
    if magic not in (b"P2", b"P5"):
        raise PictureError(f"unsupported PGM magic {magic!r}")
    if maxval < 1 or maxval > 65535:
        raise PictureError(f"PGM maxval {maxval} out of range")
    count = width * height
    if magic == b"P2":
        try:
            raw = [int(t) for t in data[pos:].split()]
        except ValueError as exc:
            raise PictureError(f"malformed PGM sample: {exc}") from None
    else:
        wide = maxval > 255
        need = count * (2 if wide else 1)
        body = data[pos:pos + need]
        if len(body) < need:
            raise PictureError("truncated PGM pixel data")
        if wide:
            raw = [body[2 * i] << 8 | body[2 * i + 1] for i in range(count)]
        else:
            raw = list(body)
    if len(raw) != count:
        raise PictureError(f"expected {count} PGM samples, got {len(raw)}")
    if any(v < 0 or v > maxval for v in raw):
        raise PictureError("PGM sample exceeds maxval")
    values = [_gray_code((v << n) // (maxval + 1)) for v in raw]
    canvas = build_grid_canvas(width, height, pixel_cap=pixel_cap)
    return attach_picture(canvas, values, n)


def _pgm_header_tokens(data: bytes) -> tuple[list[bytes], int]:
    """First four whitespace tokens, skipping comments; returns (tokens,
    offset one whitespace byte past the maxval token)."""
    tokens: list[bytes] = []
    i = 0
    while i < len(data) and len(tokens) < 4:
        c = data[i:i + 1]
        if c == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    if i < len(data) and data[i:i + 1].isspace():
        i += 1
    return tokens, i


def format_pgm(values, width: int, height: int, maxval: int) -> bytes:
    """Plain (P2) PGM for small masks."""
    values = list(values)
    if len(values) != width * height:
        raise PictureError("mask size does not match dimensions")
    rows = [" ".join(str(v) for v in values[r * width:(r + 1) * width])
            for r in range(height)]
    text = f"P2\n{width} {height}\n{maxval}\n" + "\n".join(rows) + "\n"
    return text.encode("ascii")
