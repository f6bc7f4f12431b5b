(** Unboxed row-major matrices over [Bigarray] storage — the batched
    inference counterpart of {!Tensor}.

    {!Tensor} keeps activations in OCaml [float array]s, which is ideal
    for training (the GC understands them, gradients alias them) but
    bounds-checked on every access. The planning hot path evaluates the
    MLP over tens of thousands of candidate configurations per query, so
    it stores the feature batch in a [Bigarray.Array1] of unboxed
    doubles instead: rows can be sliced into zero-copy views for domain
    fan-out, and the C inference kernel behind {!Network.forward_batch}
    reads the storage in place, outside the OCaml heap, with the runtime
    lock released.

    Shape convention (same as {!Tensor}): a batch is [rows × cols] with
    one configuration's feature vector per {e row}, stored row-major —
    element [(i, j)] lives at linear index [i * cols + j]. *)

type storage =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  rows : int;
  cols : int;
  data : storage;  (** row-major, length [rows * cols] *)
}

val create : int -> int -> t
(** [create rows cols] is a zero-filled [rows × cols] matrix. *)

val of_array : rows:int -> cols:int -> float array -> t
(** Copy a row-major [float array] (length must be [rows * cols]) into
    fresh Bigarray storage. *)

val to_array : t -> float array
(** Copy back out to a row-major [float array] (for tests and for
    callers that hand results to {!Tensor}-based code). *)

val of_tensor : Tensor.t -> t
(** Copy a {!Tensor} batch into Bigarray storage, preserving shape. *)

val get : t -> int -> int -> float
(** [get m i j] is element [(i, j)]. Bounds-checked; the inference
    kernels use unchecked access internally instead. *)

val set : t -> int -> int -> float -> unit
(** [set m i j v] stores element [(i, j)]. Bounds-checked. *)

val sub_rows : t -> off:int -> len:int -> t
(** [sub_rows m ~off ~len] is a zero-copy view of rows
    [off .. off+len-1]: the view shares storage with [m] (writes are
    visible in both). Rows are contiguous in row-major layout, so this
    is how the batched scorer hands each domain its slice of one shared
    feature matrix without copying. *)
