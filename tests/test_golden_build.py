"""Golden digests of the family builder, the band switch and the
`construct` errors for bad factors.

- `format_family` of every one-factor family (p, m, n) with p <= 13 prime,
  m, n >= 0, m + n >= 1 and p**(m+n) <= 64: 50 families.
- One digest over the outcomes of `sudoku_symbol_switch` (the switched
  entries, or the exception's type and message) on the first square of
  each of 8 types of order 4-12, for both band kinds and an unknown one,
  every band index 0..bands+1 and every symbol pair in 0..n+1.
- The exit code, stdout and stderr of `construct` on bad factors.

A changed digest means some byte of a family, a switch result or an error
message changed.
"""

import hashlib
import json

import numpy as np
import pytest

from mosls import cli, composite_mosls, format_family, gf, sudoku_symbol_switch
from mosls.switching import SwitchSpec

FAMILY_DIGESTS = {
    (2, 0, 1): "d5990e11b0bf436181716a9e455a6a12231c97f30fac4ff338f400d703186ef0",
    (2, 0, 2): "5ac3ddf8747d73e735ce1a3075b96563da3717b34d0fa9ba735438020d5c781c",
    (2, 0, 3): "a18c442e6015624347947bcadb3588d63713da6916da1d58988e3a81b6c1b1e9",
    (2, 0, 4): "98f4d419acfbca5519d752b6e54410d73604fffcd8073c2e3e212c0f3bce7505",
    (2, 0, 5): "7b8af120321fe43f8d7b3b5d41ea3f1f1e98295d1fd610328b5fc66a2933068f",
    (2, 0, 6): "5511cf3e243b24f0704ed4023749abc36702b0868a3a9c92682c04f30f7b9749",
    (2, 1, 0): "0b3eb8778964762c2d08ded040e1c16b1611d3658040faeeb5890b4d49f74ecf",
    (2, 1, 1): "c73fd4954f3208902895dd927c9c59879f96025708300579e09daecaca523eab",
    (2, 1, 2): "ec6e28c5156877ff414288327ad5ffa64f5c54596c2256e8482af5f729218021",
    (2, 1, 3): "60da0755c88dfe48000349b1415b2c4e40816c3696c21640b65d0dd276c18ac4",
    (2, 1, 4): "a2d7ff597fe64fda2ee20d368745c36bdac483b3a19726b8aec7b3225a171db0",
    (2, 1, 5): "b03ac08240d82fee33eaebbbf52dc99edfefab6a68ec3e397d6940bbd2287764",
    (2, 2, 0): "a214f2f0da040cf01d3ffca1f045c3e3f764a008fe6da168032621be2551ced9",
    (2, 2, 1): "53555ccd439ffcd7d5f18744abda61d6560c4f31d654ddbfb5d90919c2e5c8d8",
    (2, 2, 2): "30908e287a817962110362b1bda9af310648b287e36269df299534eda00ef5ee",
    (2, 2, 3): "6bdeb419ab66b747bc5e3001db1480231c6d49278739c47a6b6110429646c130",
    (2, 2, 4): "ce92b3a3a4ccb7cb6b5b1ec41a5435ab8f7f600320c770671b6d2754dc965083",
    (2, 3, 0): "40163617aa269ac6bc738a10b98b6fe26213ee8a76aa9e6208a23a0bfa6b4715",
    (2, 3, 1): "da54a798f689a9f50b4d29f1c03d6ced4e3fa7d7cb0a08664c9b1bf868574e1d",
    (2, 3, 2): "2347a8d63d1856a1e94eaac416123fc29d620e65a39267ba8a831eff72aaa832",
    (2, 3, 3): "ec6431d214d3c0adf35610e020fae7a6f0b022d1dc6994940ceb41a9a7c1cb51",
    (2, 4, 0): "f3666e4baf82963d6345676bf93e21fb0b0cb8986ea5cac14802acb63e7d5797",
    (2, 4, 1): "25eb13a1c090d5b5833af7333567559065c1e842491ccf3bccb4a505f7eb1518",
    (2, 4, 2): "bb751afabc8f9a024d7380c518d444a9c9c415f4d2a5566c44383b4ea38918a8",
    (2, 5, 0): "ed258ac2be0c38af749875c849fcef69682a2ceab910177bf30ddfaf5e26ae09",
    (2, 5, 1): "7d3d52899b882cbcfc4dac0d5e1a6f04d4ecb1d8337eacc679143adeb57971b8",
    (2, 6, 0): "0653528d4a1fdc090823b850b68071d196687eca6a6bd6d777e89e4c3e180dc8",
    (3, 0, 1): "1fb9cf4645bd2a697a6d679ed16cc7af379ac2950ad5c72301f4eb313a90c950",
    (3, 0, 2): "bd9ddec487f422289e427ccde3ad3e4461c131fe79ddfcb20db374fefa393ee7",
    (3, 0, 3): "282352a2824dfbfed77b7352dea67a88a58477bdee9da1aeaaed2861e3ac4add",
    (3, 1, 0): "1c1b08f6583c87c540c65c4d60d08d8df660331218efd601cd25fb200786bb26",
    (3, 1, 1): "ab59267b9cf4f56b4152366eb938f4237aa0765c604991fbe4baae2b0be0713a",
    (3, 1, 2): "dc656910c0b25c086faf29490e450401adb496b89bea761b4413023268511d33",
    (3, 2, 0): "95bda929f205f451c2ca2b15cd342f790e6252b35fcd51d284c4cce2609489ed",
    (3, 2, 1): "3c7502e724f57f7c6b648eb27bea8e30ffd7abeba5298cbfd1b673077cd01134",
    (3, 3, 0): "29274b4c36202089b055848536c626a49d416adc3e29c2d43f91bc2e43dac989",
    (5, 0, 1): "ae0dd00d64c18d9bc63a02a7c9e848da656f262b8b5582c4abc3858609f2f34e",
    (5, 0, 2): "50fecd5e43c814470e6f50f6927dbacbdca9744b20b2838f413f90f054da6b21",
    (5, 1, 0): "9c4d0019bd6a34225369e80d73ca83954aab9f913564098c46434350bcba43dc",
    (5, 1, 1): "32cc998e3c680ed689bd47394618ace84042c34be9163fed13469c1487f1c2b7",
    (5, 2, 0): "d1b8fc84637c46e7f9c6bc9596ba21433cbf4850112b9b0be3697ac7d07f6b64",
    (7, 0, 1): "bc8d26c591c681c5a30d3dfd9c4642e4238acf1a3cf72de0aea12013755f6a3f",
    (7, 0, 2): "04185ae073bd5c8e28b886cffe5179a759ea609208f8b73b9ff35056a892acd3",
    (7, 1, 0): "275a3e15249af0fb4263e406f85a8f20f5412e82796526da81057b2de32b7162",
    (7, 1, 1): "f85460c6dae410cd1eee2b59cdc51a2721b70f334268edf39ee529d674252561",
    (7, 2, 0): "6caf13e445e7598447c3d7a8379710de40d82728fefb18a78ee8cfd7c804ac46",
    (11, 0, 1): "cd6b68350fae9cd378e4949df05473a1ef26f7aa04947fd2110177312d410c21",
    (11, 1, 0): "d212992d9283b965a2f8c22e08d01520ee2a83eb8e08260d382b490785873f29",
    (13, 0, 1): "0a4df5883f7bba0568fa96b9f33e75666c845a58d6272f23903acd2b0ae80bc4",
    (13, 1, 0): "8b7ec37d2610689b715fa6555588b16f455148ad1c8f4cff296ba3a7e6c8611e",
}


def _one_factor_families():
    for p in (p for p in range(2, 14) if gf.is_prime(p)):
        for m in range(7):
            for n in range(7):
                if m + n >= 1 and p ** (m + n) <= 64:
                    yield p, m, n


def test_one_factor_family_sweep_is_complete():
    assert sorted(_one_factor_families()) == sorted(FAMILY_DIGESTS)


@pytest.mark.parametrize("p,m,n", sorted(_one_factor_families()))
def test_one_factor_family(p, m, n):
    text = format_family(composite_mosls([(p, m, n)], order_cap=64))
    assert hashlib.sha256(text.encode()).hexdigest() == FAMILY_DIGESTS[(p, m, n)]


# first square of each type: the table rows of order <= 12 with q, r >= 2,
# and type (4, 3)
SWITCH_FACTORS = [
    [(2, 1, 1)],
    [(2, 1, 0), (3, 0, 1)],
    [(2, 1, 2)],
    [(3, 1, 1)],
    [(2, 1, 0), (5, 0, 1)],
    [(2, 1, 1), (3, 0, 1)],
    [(3, 1, 0), (2, 0, 2)],
    [(2, 2, 0), (3, 0, 1)],
]

SWITCH_DIGEST = "5f3ed942d4e6482a7c734f9045dec9c987f432c7fcf04015f074bbdad15871d5"


def _switch_outcomes():
    """(specs tried, sha256 over every outcome)."""
    h = hashlib.sha256()
    tried = 0
    for factors in SWITCH_FACTORS:
        square = composite_mosls(factors).squares[0]
        q, r, n = square.shape.q, square.shape.r, square.order
        for kind, bands in (("row-block", r), ("col-block", q), ("diagonal", 0)):
            for index in range(bands + 2):
                for k1 in range(n + 2):
                    for k2 in range(n + 2):
                        spec = SwitchSpec(kind, index, (k1, k2))
                        try:
                            # int64 bytes, as the digest was taken when squares held int64
                            record = sudoku_symbol_switch(square, spec).entries.astype(np.int64).tobytes()
                        except Exception as exc:  # the exception is the outcome
                            record = f"{type(exc).__name__}: {exc}".encode()
                        h.update(repr(spec).encode() + b"\0" + record + b"\0")
                        tried += 1
    return tried, h.hexdigest()


def test_symbol_switch_outcomes():
    assert _switch_outcomes() == (13428, SWITCH_DIGEST)


# name: construct arguments
BAD_FACTOR_CASES = {
    "non-prime p": ["--p", "4", "--m", "1", "--n", "1"],
    "non-prime factor": ["--factor", "6:1:0"],
    "no exponents": ["--p", "2", "--m", "0", "--n", "0"],
    "negative exponent": ["--factor", "2:-1:2"],
    "repeated prime": ["--factor", "2:1:0", "--factor", "2:0:1"],
    "repeated prime after a bad factor": ["--factor", "2:1:0", "--factor", "2:0:1", "--factor", "9:1:1"],
    "two bad factors": ["--factor", "4:1:0", "--factor", "3:0:0"],
    "two bad factors swapped": ["--factor", "3:0:0", "--factor", "4:1:0"],
    "factor over the cap": ["--p", "2", "--m", "3", "--n", "2"],
    "product over the cap": ["--factor", "3:1:1", "--factor", "2:1:0"],
    "repeated prime over the cap": ["--factor", "2:3:3", "--factor", "2:0:1"],
}

BAD_FACTOR_DIGESTS = {
    "factor over the cap": "45aa6358928b171d44080bb6b47dc61d5175f0685cdf1a59a393e058e63541af",
    "negative exponent": "8780d4beff73669e0af286b243c97d432bf107f8e52a1ba9d63eb2b45cf5340d",
    "no exponents": "91a2afe0699e2456c63ce0e1f33934d056a65cc09b9fa86a2daded47d512c5ea",
    "non-prime factor": "0f894b80463b4418d0b9df5723f685b213512cca355222e2fafd8206e2ea1644",
    "non-prime p": "b9f872d1bb075cb6ab10bc1149ccaad6e0ee4347ba0d5d0dbb0afa0b66a696fb",
    "product over the cap": "cfa7f9e1f1a89dbf6a2d4feccc25eed6c21a65228828c7472fd6cbda865a4a31",
    "repeated prime": "2ca5681520a0a97b79107885dab3753207aa87163b74736801c203823ea58971",
    "repeated prime after a bad factor": "459e7bf05472adec23848a45cac0233ba11ef7ef4d62d833ad3e14d943ff2344",
    "repeated prime over the cap": "2ca5681520a0a97b79107885dab3753207aa87163b74736801c203823ea58971",
    "two bad factors": "b9f872d1bb075cb6ab10bc1149ccaad6e0ee4347ba0d5d0dbb0afa0b66a696fb",
    "two bad factors swapped": "91a2afe0699e2456c63ce0e1f33934d056a65cc09b9fa86a2daded47d512c5ea",
}


@pytest.mark.parametrize("name", sorted(BAD_FACTOR_CASES))
def test_construct_bad_factors(name, capsys):
    code = cli.main(["construct"] + BAD_FACTOR_CASES[name])
    out, err = capsys.readouterr()
    digest = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
    assert digest == BAD_FACTOR_DIGESTS[name]
