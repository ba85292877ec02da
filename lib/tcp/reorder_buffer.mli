(** Receiver-side out-of-order store.

    The simulation carries no payload bytes, so "buffering" a segment
    means remembering which byte ranges have arrived. The receiver's
    cumulative ACK point advances through whatever this buffer makes
    contiguous. *)

type t

val create : unit -> t

val insert : t -> expected:int -> lo:int -> hi:int -> unit
(** Record arrival of bytes [lo, hi) (duplicates are harmless).
    [expected] is the receiver's current cumulative point, used only to
    classify the arrival as in-order or not. *)

val deliverable_up_to : t -> from:int -> int
(** Highest offset reachable from [from] through contiguous buffered
    bytes; equals [from] when byte [from] has not arrived. *)

val consume_below : t -> int -> unit
(** Release state below the new cumulative point. *)

val is_empty : t -> bool
(** Nothing buffered above the cumulative point. *)

val sack_blocks : t -> above:int -> max_blocks:int -> (int * int) list
(** Up to [max_blocks] buffered ranges strictly above [above], most
    recently useful first (ascending order is fine for the simulator's
    consumer). *)

val buffered_bytes : t -> int
val segments_out_of_order : t -> int
(** Running count of inserts that did not extend the contiguous head. *)
