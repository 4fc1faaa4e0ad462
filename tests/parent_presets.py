"""Parent code of colourgl.presets, kept verbatim as an oracle.

preset_space and is_preset_name as they were before each preset family
had one pattern that both recognises a name and reads its counts: one
pattern for every family, whose arguments were any run of digits, | and
commas, split and read by int() afterwards.  A z2z2 of more than four
dims dropped the extra ones, and a malformed name was refused with
int()'s or the unpacking's own message.  tests/test_presets.py runs both
over a sweep of names and asks for the same space wherever the parent
built one."""

import re

from colourgl.presets import glq_space, green_space, super_space, z2z2_space

_PRESET_RE = re.compile(
    r"^(?P<name>super|glq|z2z2|green)"
    r"(?:\((?P<args>[\d|,]*)\))?$")


def preset_space(name):
    """Build a GradedSpace from a preset name, or raise KeyError."""
    m = _PRESET_RE.match(name.strip())
    if not m:
        raise KeyError(f"unknown preset {name!r}")
    kind, args = m.group("name"), m.group("args")
    if kind in ("super", "glq"):
        if not args or "|" not in args:
            raise KeyError(f"{kind} preset needs (m|n), got {name!r}")
        mm, nn = args.split("|")
        builder = super_space if kind == "super" else glq_space
        return builder(int(mm), int(nn))
    if kind == "z2z2":
        dims = tuple(int(x) for x in args.split(",")) if args else (1, 1, 1, 1)
        return z2z2_space(dims)
    if not args:  # green, the last kind of _PRESET_RE
        raise KeyError("green preset needs (n)")
    return green_space(int(args))


def is_preset_name(name):
    return bool(_PRESET_RE.match(name.strip()))
