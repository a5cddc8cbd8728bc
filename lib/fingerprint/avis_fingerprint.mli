(** The code fingerprint of this build.

    The hex MD5 of every [.ml], [.mli], [dune] and [dune-project] file of
    the project outside [test/], by path and content, together with the
    compiler version, the architecture, the system and the build profile.
    A dune rule computes it once, when the project is built, so every
    executable of one build carries the same value and no process reads
    its own binary. An edit to any of those files changes it; an edit to
    a test or to any other file (a README, a CI workflow) does not.

    [Checkpoint_store] and [Run_journal] key their files with it, so what
    one build stored is never served to another. *)

val hex : string
(** 32 lowercase hex digits. *)
