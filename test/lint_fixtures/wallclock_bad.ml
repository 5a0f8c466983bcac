(* Fixture: every banned time source fires RJL007 when linted under lib/
   scope. *)

let cpu () = Sys.time ()
let wall () = Unix.gettimeofday ()
let posix () = Unix.time ()
