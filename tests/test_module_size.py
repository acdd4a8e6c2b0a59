"""No module of src/brpickit reaches 16,384 parser tokens.

CPython's parser grows its token array by doubling at that size, so a
module that reaches it costs about a megabyte more at every import that
compiles it.  Tokens are counted with tokenize, leaving out COMMENT, NL
and ENCODING tokens.  Run as a script, this prints each module's count.
"""

import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "brpickit"
LIMIT = 16384
_UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def parser_tokens(path):
    with path.open("rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline)
                   if tok.type not in _UNCOUNTED)


def module_tokens():
    return {path.name: parser_tokens(path) for path in sorted(SRC.glob("*.py"))}


def test_every_module_is_below_the_parser_token_doubling():
    sizes = module_tokens()
    assert {"hopf.py", "host.py"} <= set(sizes)
    assert {name: n for name, n in sizes.items() if n >= LIMIT} == {}


if __name__ == "__main__":
    for name, n in module_tokens().items():
        print(f"{n:6d} {name}")
