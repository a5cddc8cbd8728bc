(** The hunt daemon's worker side: a long-lived cell executor forked from
    the daemon.

    A worker is a fork of the daemon, so it shares the daemon's binary
    fingerprint: the journal records it appends — and the
    {!Wire.cell_status} records it streams back over its pipe — carry
    exactly the keys an in-process [avis_cli hunt] of the same request
    would compute. It runs each cell through {!Campaign.run_cell}, the
    runner [hunt] and the bench matrix use too, so its metrics lines and
    results are theirs. A worker runs one cell at a time: the daemon
    writes it one {!Wire.assignment} only while it is idle, so losing a
    worker costs at most one re-queue. *)

open Avis_core

type cell = {
  approach : string;
  config : Campaign.config;
  strategy : Search.context -> Search.t;
  label : string;  (** {!Campaign.label_of}: [approach/policy/workload]. *)
}

val policy_of_name : string -> Avis_firmware.Policy.t option
(** ["apm"]/["ardupilot"] or ["px4"], case-insensitively — both the CLI
    short names and the policies' display names resolve. *)

val strategy_of_name : string -> (Search.context -> Search.t) option
(** The CLI's approach names: avis|sabre|strat-bfi|bfi|random|dfs|bfs. *)

val display_name : string -> string
(** The strategy's [Search.name] for a CLI approach name (identity for
    unknown names) — what a live campaign result reports as its
    approach, and therefore what `submit` prints so daemon output
    matches `hunt` output byte for byte. *)

val cells_of_request : Wire.hunt_request -> (cell list, string) result
(** Validate and expand a request into one cell per approach: the one
    cell expansion; [avis_cli hunt] uses it too. Each cell's config is
    {!Campaign.default_config} with the request's budget and a
    {!Campaign.cell_seed} from its seed and the cell's labels, which is
    what makes daemon results byte-comparable to in-process runs. A
    request with no approach, an unknown name, a budget that is not
    finite and positive, or a [lanes] field asking for batching (anything
    but absent or 1) is an [Error]. *)

val fork_budget : limit:int -> live:int -> idle:int -> pending:int -> int
(** How many additional workers pending work justifies: never more than
    [limit - live], and never more than the [pending] cells that the
    [idle] ones of the [live] workers (those not running a cell) could
    not take — forking a process that would only ever block on an empty
    pipe wastes a fork and a journal load. Never negative; [limit] is
    clamped to at least 1. *)

val cell_of_assignment : Wire.assignment -> (cell, string) result
(** Expand one assignment through {!cells_of_request} (the assignment's
    approach as the sole entry), so an assigned cell's config cannot
    drift from what `submit` validated. *)

val serve :
  journal_path:string -> input:Unix.file_descr -> out:Unix.file_descr ->
  unit
(** The forked child's main: run each {!Wire.assignment} read from
    [input], one at a time, through {!Campaign.run_cell} against the
    journal at [journal_path] — the daemon's own — and report its
    req-tagged {!Avis_util.Metrics} lines (one per tenth of the budget,
    then the terminal one) and then its terminal
    {!Wire.response.Cell_result} over [out]. A live cell's record is
    read back from the journal, so its wire bytes equal a later memo's.
    Returns at EOF on [input]. Never raises on a cell failure: the
    supervised runner reports it as [Cell_quarantined]. *)
