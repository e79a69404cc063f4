"""The model of CPython's `random` that criterion 9 replays its draws from,
held to the running Python.  A change to `random` then fails here, naming
what changed, rather than as a different `paper-suite` ledger.

The model: `getrandbits(32 * N)`, read as little-endian 32-bit words, is
the next N results of `getrandbits(32)`; and `randrange(lo, hi)` keeps the
top k = (hi - lo).bit_length() bits of one word, drawing another word until
they are below hi - lo.

The module is pure Python, with no NumPy, so that it also runs on an
interpreter without the package's dependencies:
`python tests/test_random_words.py`."""

import random

# every range criterion 9 draws from: the morphism section, the truncation
# section for each precision big = 2, ..., 16, and the val2 section
CRITERION_9_RANGES = sorted(
    {(-500, 500), (0, 500), (1, 17), (2, 17), (-2000, 2001), (0, 1000)}
    | {(1, big + 1) for big in range(2, 17)}
    | {(0, 1 << (big - 1)) for big in range(2, 17)})
SEEDS = (20260819, 0, 1, 2 ** 64 + 7)


def model_words(rng, count):
    bits = rng.getrandbits(32 * count)
    return [(bits >> (32 * i)) & 0xFFFFFFFF for i in range(count)]


def model_randrange(rng, lo, hi):
    k = (hi - lo).bit_length()
    while True:
        r = rng.getrandbits(32) >> (32 - k)
        if r < hi - lo:
            return lo + r


def test_a_wide_getrandbits_is_the_next_words_lowest_first():
    for seed in SEEDS:
        wide, narrow = random.Random(seed), random.Random(seed)
        for count in (1, 2, 3, 623, 624, 625, 2000):
            assert model_words(wide, count) == [narrow.getrandbits(32) for _ in range(count)], (
                f"getrandbits(32 * {count}) at seed {seed} is not the next {count} words "
                "of getrandbits(32), lowest first")


def test_randrange_keeps_the_top_bits_of_a_word_drawn_until_below_the_width():
    for seed in SEEDS:
        for lo, hi in CRITERION_9_RANGES:
            real, model = random.Random(seed), random.Random(seed)
            k = (hi - lo).bit_length()
            assert ([real.randrange(lo, hi) for _ in range(300)]
                    == [model_randrange(model, lo, hi) for _ in range(300)]), (
                f"randrange({lo}, {hi}) at seed {seed} is not lo plus the top {k} bits "
                f"of a word, drawn again until below {hi - lo}")
            assert real.getstate() == model.getstate(), (
                f"randrange({lo}, {hi}) at seed {seed} reads a different number of words")


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(name, "passed")
