"""Every ``AtomStore`` backend certified against the shared contract.

One subclass per backend (plus the file-backed sqlite variants: a fresh
file, whose rows survive on disk, and a reopened one, the store a resumed
chase runs on) — adding a backend to the system means adding a subclass
here.  The harness itself lives in ``tests/storage/store_contract.py``.
"""

from repro.core.instances import Instance
from repro.storage.sqlbackend import SqliteAtomStore

from tests.storage.store_contract import EMPTY, NULLARY, AtomStoreContract, R, S


class TestInstanceContract(AtomStoreContract):
    def make_store(self, tmp_path):
        return Instance()


class TestSqliteMemoryContract(AtomStoreContract):
    def make_store(self, tmp_path):
        return SqliteAtomStore(name="contract")


class TestSqliteFileContract(AtomStoreContract):
    def make_store(self, tmp_path):
        return SqliteAtomStore(path=str(tmp_path / "contract.db"), name="contract")


class TestSqliteReopenedFileContract(AtomStoreContract):
    """A file store reopened after an earlier session catalogued the
    contract's relations and closed with them empty.

    The open restores the catalog, zero counts and a zero sequence
    watermark from disk, as a resumed serial or parallel chase does, and
    every write and read after it must behave as on a fresh store.
    """

    def make_store(self, tmp_path):
        path = str(tmp_path / "reopened.db")
        with SqliteAtomStore(path=path, name="earlier") as earlier:
            for predicate in (R, S, EMPTY, NULLARY):
                earlier.create_relation(predicate)
        return SqliteAtomStore(path=path, name="contract")
