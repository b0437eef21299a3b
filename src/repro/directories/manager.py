"""The Directory Manager: creating and maintaining directories at commit.

Section 6 places directory maintenance in the commit path: "The Linker
incorporates updates made by a transaction in the permanent database at
commit time, calling for restructuring of directories as needed."

The manager registers itself as a Transaction Manager commit listener.
For each committed write it distinguishes:

* **membership changes** — a write to an owner set's element either adds
  a member (new Ref value), replaces one, or removes one (nil value);
* **discriminator changes** — a write to any object some member's key
  was computed through (the dependency sets collected by
  :meth:`Directory.compute_key`) re-keys the affected members.

One headache the paper reports — "hints given in OPAL for structuring
directories must be translated for use by the Object Manager" — shows up
here as :meth:`apply_hint`, which parses the OPAL-level hint string into
an owner + discriminator path.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from ..core.objects import GemObject
from ..core.paths import Path, parse_path
from ..core.values import Ref
from ..errors import DirectoryError
from .directory import Directory


class DirectoryManager:
    """Registry and commit-time maintainer of all directories."""

    def __init__(self, store) -> None:
        self.store = store
        self._by_owner: dict[int, list[Directory]] = {}
        self._all: list[Directory] = []
        #: bumped on every create/drop; memoized query plans embed the
        #: epoch in their key, so an index change re-plans the query
        self.epoch = 0

    def __len__(self) -> int:
        return len(self._all)

    # -- creation ------------------------------------------------------------

    def create_directory(
        self, owner: Any, path: "Path | str", name: str = ""
    ) -> Directory:
        """Create a directory over *owner*'s members, keyed by *path*.

        The directory is built from the current committed state and then
        maintained incrementally by commits.
        """
        owner_obj = self.store.deref(owner)
        if not isinstance(owner_obj, GemObject):
            raise DirectoryError("directories index structured owner objects")
        directory = Directory(owner_obj.oid, path, name)
        if any(
            d.path == directory.path for d in self._by_owner.get(owner_obj.oid, ())
        ):
            raise DirectoryError(
                f"owner {owner_obj.oid} already has a directory on !{directory.path}"
            )
        directory.build(self.store, self.store.current_time())
        self._by_owner.setdefault(owner_obj.oid, []).append(directory)
        self._all.append(directory)
        self.epoch += 1
        return directory

    def apply_hint(self, hint: str) -> Directory:
        """Translate an OPAL structuring hint into a directory.

        Hint syntax: ``"<owner-oid> on <path>"`` — e.g. the kernel's
        ``aSet indexOn: 'Salary'`` primitive formats one.
        """
        try:
            owner_text, _, path_text = hint.partition(" on ")
            owner_oid = int(owner_text)
        except ValueError as error:
            raise DirectoryError(f"malformed directory hint {hint!r}") from error
        if not path_text:
            raise DirectoryError(f"malformed directory hint {hint!r}")
        return self.create_directory(Ref(owner_oid), path_text.strip())

    def drop_directory(self, directory: Directory) -> None:
        """Remove a directory from maintenance."""
        self._all.remove(directory)
        owners = self._by_owner.get(directory.owner_oid, [])
        if directory in owners:
            owners.remove(directory)
        self.epoch += 1

    # -- lookup for the query optimizer ------------------------------------------

    def find_directory(
        self, owner_oid: int, path: "Path | str"
    ) -> Optional[Directory]:
        """A directory on exactly this owner and discriminator, if any."""
        wanted = parse_path(path) if isinstance(path, str) else path
        for directory in self._by_owner.get(owner_oid, ()):
            if directory.path == wanted:
                return directory
        return None

    def all_directories(self) -> Iterator[Directory]:
        """Every registered directory."""
        return iter(tuple(self._all))

    # -- commit listener -----------------------------------------------------------

    def on_commit(self, tx_time: int, dirty, writes, creations) -> None:
        """Maintain directories for one committed transaction."""
        if not self._all:
            return
        for write in writes:
            self._apply_membership_change(write, tx_time)
        rekeyed: set[tuple[int, int]] = set()
        for write in writes:
            self._apply_discriminator_change(write, tx_time, rekeyed)

    def _apply_membership_change(self, write, tx_time: int) -> None:
        owned = self._by_owner.get(write.oid)
        if not owned:
            return
        owner = self.store.object(write.oid)
        table = owner.elements.get(write.name)
        previous = table.value_at(tx_time - 1) if table is not None else None
        for directory in owned:
            if isinstance(previous, Ref) and previous != write.value:
                if not self._still_member(owner, previous, write.name, tx_time):
                    directory.remove_member(self.store, previous.oid, tx_time)
            if isinstance(write.value, Ref):
                directory.add_member(self.store, write.value, tx_time)

    def _still_member(
        self, owner: GemObject, member: Ref, changed_name: Any, tx_time: int
    ) -> bool:
        """True if *member* remains under some other alias of *owner*."""
        for name, value in owner.items_at(None):
            if name != changed_name and value == member:
                return True
        return False

    def _apply_discriminator_change(
        self, write, tx_time: int, rekeyed: set[tuple[int, int]]
    ) -> None:
        for directory in self._all:
            for member_oid in directory.depends_on(write.oid):
                token = (id(directory), member_oid)
                if token not in rekeyed:
                    rekeyed.add(token)
                    directory.rekey_member(self.store, member_oid, tx_time)

    # -- persistence of definitions --------------------------------------------------

    def export_definitions(self) -> list[tuple[int, str, str]]:
        """Plain-data directory definitions for the catalog blob."""
        return [(d.owner_oid, str(d.path), d.name) for d in self._all]

    def import_definitions(self, definitions) -> None:
        """Recreate directories from :meth:`export_definitions` output.

        Contents are rebuilt from the current committed state, then
        maintained incrementally as before.
        """
        for owner_oid, path_text, name in definitions:
            if self.find_directory(owner_oid, path_text) is None:
                self.create_directory(Ref(owner_oid), path_text, name)
