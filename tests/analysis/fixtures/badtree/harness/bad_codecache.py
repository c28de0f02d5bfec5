"""Seeded REPRO002 violation outside exec/ (golden fixture — never
imported): the codecache-v2 marker alone opts this module in."""


def persist(root, payload):
    (root / "codecache-v2" / "entry.bin").write_bytes(payload)  # line 6
