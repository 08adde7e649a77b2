"""The validators' acceptance memo: the pattern's one verdict memo.

Defined in :mod:`repro.matching.memo` (each compiled runtime owns one,
shared by validators and batches); re-exported here as
``repro.xml.AcceptanceMemo``.
"""

from ..matching.memo import MEMO_LIMIT, AcceptanceMemo

__all__ = ["AcceptanceMemo", "MEMO_LIMIT"]
