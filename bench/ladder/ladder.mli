(* An executable: see ladder.ml and README.md in this directory. *)
