(** Resolved-path plumbing for the typed tier: turns a Typedtree
    [Path.t] into the canonical module path it denotes, seeing through
    module aliases, [let module] rebindings and functor applications,
    and normalizing dune's wrapped-library mangling
    (["Sched_sim__Driver"] reads as [["Sched_sim"; "Driver"]]). *)

type target =
  | Module_path of Path.t  (** alias of another module path *)
  | Applied of Path.t  (** result of applying the functor at this path *)
  | Logical of string list  (** structure defined at this logical path *)

type env
(** Module bindings of one compilation unit, keyed by [Ident.t] (stamps
    are unique within a unit, so one flat table suffices). *)

val bind : env -> Ident.t -> target -> unit

val build_env : Typedtree.structure -> env
(** Collect every module alias / functor application / structure binding
    in the unit, at the structure toplevel (with true nested prefixes)
    and inside expressions ([let module ...]). *)

val split_mangled : string -> string list
(** ["Sched_sim__Driver"] -> [["Sched_sim"; "Driver"]];
    ["Sched_sim__"] -> [["Sched_sim"]]. *)

val strip_functor : string list -> string list
(** Collapse an applied functor onto its parent module:
    [["Hashtbl"; "Make"]] -> [["Hashtbl"]]. *)

val normalize : string list -> string list
(** Flatten mangled components and strip a leading ["Stdlib"]. *)

val resolve : env -> Path.t -> string list
(** The canonical, normalized module path denoted by [Path.t], with
    aliases chased and applied functors collapsed onto their parent
    module ([Hashtbl.Make(K).iter] resolves to [["Hashtbl"; "iter"]]). *)
