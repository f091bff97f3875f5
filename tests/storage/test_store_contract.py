"""Every ``AtomStore`` backend certified against the shared contract.

One subclass per backend (plus the file-backed sqlite variant, whose rows
survive on disk, and the read-only-attach overlay the parallel chase's
out-of-core process workers run on) — adding a backend to the system means
adding a subclass here.  The harness itself lives in
``tests/storage/store_contract.py``.
"""

from repro.core.instances import Instance
from repro.storage.sqlbackend import SqliteAtomStore, SqliteOverlayStore

from tests.storage.store_contract import AtomStoreContract


class TestInstanceContract(AtomStoreContract):
    def make_store(self, tmp_path):
        return Instance()


class TestSqliteMemoryContract(AtomStoreContract):
    def make_store(self, tmp_path):
        return SqliteAtomStore(name="contract")


class TestSqliteFileContract(AtomStoreContract):
    def make_store(self, tmp_path):
        return SqliteAtomStore(path=str(tmp_path / "contract.db"), name="contract")


class TestSqliteOverlayContract(AtomStoreContract):
    """The overlay store over an (empty) read-only base file.

    Exercises the overlay's write path end to end: every contract atom
    lands in the in-memory delta schema while the attached base stays
    untouched.  The base-union read path is pinned by
    ``tests/storage/test_sqlite_backend.py::TestSqliteOverlayStore``.
    """

    def make_store(self, tmp_path):
        base_path = str(tmp_path / "overlay-base.db")
        SqliteAtomStore(path=base_path, name="base").close()
        return SqliteOverlayStore(base_path, name="contract")
